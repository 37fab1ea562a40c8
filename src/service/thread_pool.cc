#include "service/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/thread_name.h"

namespace juggler::service {

ThreadPool::ThreadPool(const Options& options)
    : queue_capacity_(std::max<size_t>(1, options.queue_capacity)),
      mu_(lockdiag::RegisterLockClass("service.ThreadPool.mu",
                                      lockdiag::kRankService)) {
  const int n = std::max(1, options.num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] {
      SetCurrentThreadName("jg-pool");
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

Status ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("thread pool is shut down");
    }
    if (queue_.size() >= queue_capacity_) {
      return Status::ResourceExhausted(
          "request queue full (" + std::to_string(queue_capacity_) + ")");
    }
    queue_.push_back(std::move(task));
  }
  work_available_.NotifyOne();
  return Status::OK();
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

size_t ThreadPool::QueueDepth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) work_available_.Wait(mu_);
      if (queue_.empty()) return;  // Shutdown with a drained queue.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace juggler::service
