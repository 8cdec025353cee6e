#include "common/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace sigsub {
namespace {

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int64_t> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int64_t> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int64_t> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 50 * (round + 1));
  }
}

TEST(ThreadPoolTest, TasksMaySubmitTasks) {
  ThreadPool pool(3);
  std::atomic<int64_t> counter{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&pool, &counter] {
      counter.fetch_add(1);
      pool.Submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, UnevenTasksAreStolen) {
  // Round-robin placement puts the long tasks on a subset of deques; the
  // other workers must steal to finish the batch promptly. We only assert
  // completion over a skewed workload.
  ThreadPool pool(4);
  std::atomic<int64_t> counter{0};
  for (int i = 0; i < 64; ++i) {
    int spin = (i % 4 == 0) ? 200000 : 10;
    pool.Submit([&counter, spin] {
      volatile int64_t sink = 0;
      // A plain load and store: C++20 deprecates += on a volatile.
      for (int j = 0; j < spin; ++j) sink = sink + j;
      counter.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, SubmitFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<int64_t> counter{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < 250; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int64_t> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): the destructor must finish the queue before joining.
  }
  EXPECT_EQ(counter.load(), 200);
}

}  // namespace
}  // namespace sigsub
