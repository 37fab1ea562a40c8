#ifndef JUGGLER_SERVICE_THREAD_POOL_H_
#define JUGGLER_SERVICE_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace juggler::service {

/// \brief Fixed-size worker pool with a bounded FIFO queue.
///
/// Submit() never blocks: when the queue is at capacity it returns
/// ResourceExhausted immediately, which the serving layer surfaces to the
/// client as backpressure (shed load at the edge instead of queueing
/// unboundedly — the same policy a socket front end would apply).
class ThreadPool {
 public:
  struct Options {
    int num_threads = 4;
    size_t queue_capacity = 1024;
  };

  explicit ThreadPool(const Options& options);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution by some worker. Returns ResourceExhausted
  /// when the queue is full and FailedPrecondition after Shutdown().
  [[nodiscard]] Status Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Stops accepting work, drains already-queued tasks, joins all workers.
  /// Called automatically by the destructor.
  void Shutdown() EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  const size_t queue_capacity_;
  /// Lock class "service.ThreadPool.mu" (rank service=20): leaf within the
  /// service layer — never held across a blocking call or another lock.
  Mutex mu_ ACQUIRED_AFTER(lockdiag::kNetOrder)
      ACQUIRED_BEFORE(lockdiag::kRegistryOrder);
  CondVar work_available_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace juggler::service

#endif  // JUGGLER_SERVICE_THREAD_POOL_H_
