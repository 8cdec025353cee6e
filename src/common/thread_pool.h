#ifndef SIGSUB_COMMON_THREAD_POOL_H_
#define SIGSUB_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace sigsub {

/// A fixed-size work-stealing thread pool. Tasks are distributed
/// round-robin across per-worker deques; each worker services its own
/// deque LIFO (hot caches) and steals FIFO from its neighbours when it
/// runs dry, so a handful of long scans cannot strand short jobs behind
/// them. This is the execution substrate for engine::Engine batches and
/// for the sharded parallel MSS scan (core::FindMssParallel).
///
/// Semantics:
///   - Submit() may be called from any thread, including pool workers.
///   - Wait() blocks until every task submitted so far has finished. It
///     must be called from OUTSIDE the pool's workers: a task calling
///     Wait() would wait on its own completion and deadlock. Fork-join
///     inside a task should instead Submit() and let the orchestrating
///     thread Wait() (how Engine uses it).
///   - The destructor waits for in-flight tasks, then joins the workers.
///   - Tasks must not throw (the library is exception-free by design).
class ThreadPool {
 public:
  /// `num_threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task` for execution.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

 private:
  struct Worker {
    Mutex mutex;
    std::deque<std::function<void()>> queue SIGSUB_GUARDED_BY(mutex);
  };

  void WorkerLoop(size_t worker_index);
  bool TryRunOneTask(size_t worker_index);

  // Both vectors are built in the constructor and joined/destroyed in the
  // destructor; their shape never changes while workers run (per-worker
  // queue state lives behind each Worker::mutex).
  std::vector<std::unique_ptr<Worker>> workers_ SIGSUB_THREAD_CONFINED(init);
  std::vector<std::thread> threads_ SIGSUB_THREAD_CONFINED(init);

  // Wakes idle workers when work arrives or the pool shuts down. Guards
  // no data of its own: the predicate state (`stop_`, `pending_`) is
  // atomic, and Submit holds it only to publish `pending_` without
  // racing a worker between its predicate check and its sleep.
  Mutex wake_mutex_;
  CondVar wake_cv_;

  // Signals Wait() when the last outstanding task retires. Deque locks
  // come before the completion lock in the task pipeline; no path holds
  // both (TryRunOneTask releases the deque lock before touching it).
  // sigsub-lint: order ThreadPool::Worker::mutex < ThreadPool::done_mutex_
  Mutex done_mutex_;
  CondVar done_cv_;

  std::atomic<bool> stop_{false};
  std::atomic<int64_t> pending_{0};      // Queued, not yet dequeued.
  std::atomic<int64_t> outstanding_{0};  // Submitted, not yet finished.
  std::atomic<uint64_t> next_worker_{0};
};

}  // namespace sigsub

#endif  // SIGSUB_COMMON_THREAD_POOL_H_
