#include "common/thread_pool.h"

#include <utility>

namespace sigsub {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw == 0 ? 1 : static_cast<int>(hw);
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back(&ThreadPool::WorkerLoop, this,
                          static_cast<size_t>(i));
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    MutexLock lock(wake_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.NotifyAll();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  size_t index = static_cast<size_t>(
      next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size());
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(workers_[index]->mutex);
    workers_[index]->queue.push_back(std::move(task));
  }
  {
    // Held while publishing `pending_` so a worker between its predicate
    // check and its sleep cannot miss this wakeup.
    MutexLock lock(wake_mutex_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  // The caller (a non-worker thread; see the header contract) helps
  // drain the queues before blocking, so a Wait() right after a burst of
  // Submits contributes a thread instead of just sleeping.
  for (size_t i = 0; i < workers_.size(); ++i) {
    while (outstanding_.load(std::memory_order_acquire) > 0 &&
           TryRunOneTask(i)) {
    }
  }
  MutexLock lock(done_mutex_);
  while (outstanding_.load(std::memory_order_acquire) != 0) {
    done_cv_.Wait(done_mutex_);
  }
}

bool ThreadPool::TryRunOneTask(size_t worker_index) {
  std::function<void()> task;
  // Own deque first (LIFO: the task most likely to be cache-hot)...
  {
    Worker& own = *workers_[worker_index];
    MutexLock lock(own.mutex);
    if (!own.queue.empty()) {
      task = std::move(own.queue.back());
      own.queue.pop_back();
    }
  }
  // ...then steal from the neighbours, oldest task first.
  if (!task) {
    for (size_t offset = 1; offset < workers_.size() && !task; ++offset) {
      Worker& victim =
          *workers_[(worker_index + offset) % workers_.size()];
      MutexLock lock(victim.mutex);
      if (!victim.queue.empty()) {
        task = std::move(victim.queue.front());
        victim.queue.pop_front();
      }
    }
  }
  if (!task) return false;

  pending_.fetch_sub(1, std::memory_order_release);
  task();
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    MutexLock lock(done_mutex_);
    done_cv_.NotifyAll();
  }
  return true;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  for (;;) {
    if (TryRunOneTask(worker_index)) continue;
    {
      MutexLock lock(wake_mutex_);
      while (!stop_.load(std::memory_order_acquire) &&
             pending_.load(std::memory_order_acquire) <= 0) {
        wake_cv_.Wait(wake_mutex_);
      }
      if (stop_.load(std::memory_order_acquire) &&
          pending_.load(std::memory_order_acquire) == 0) {
        return;
      }
    }
  }
}

}  // namespace sigsub
