#ifndef MAGICDB_PARALLEL_THREAD_POOL_H_
#define MAGICDB_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"

namespace magicdb {

/// Work-stealing thread pool. Each worker owns a deque: it pushes and pops
/// its own tasks LIFO (cache-friendly for recursive decomposition) and
/// steals FIFO from the other workers when its own deque runs dry (the
/// oldest task is the one most likely to represent a large untouched piece
/// of work). Deques are mutex-protected; at morsel granularity the lock is
/// a vanishing fraction of per-task work, and the implementation stays
/// trivially TSAN-clean.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return num_workers_; }

  /// Enqueues a task on the least-recently-targeted worker (round robin).
  void Submit(std::function<void()> task);

  /// Enqueues a task on a specific worker's deque. Another worker may still
  /// steal it.
  void SubmitTo(int worker, std::function<void()> task);

  /// Blocks until every queued task has finished and all workers are idle.
  void WaitIdle();

  /// Runs fn(0..n-1) as `n` ordinary tasks on the (possibly shared) pool
  /// and blocks until all return. The tasks are not pinned one-per-worker,
  /// so several gangs and any number of short non-blocking tasks can share
  /// one pool.
  ///
  /// Deadlock contract for gang members that block on barriers with each
  /// other: the caller must ensure that the total number of potentially
  /// blocking gang tasks outstanding across all concurrent RunGang calls
  /// never exceeds size(). Work stealing then guarantees every member
  /// eventually occupies a worker, so every barrier fills. The query
  /// service's slot-based admission controller maintains this invariant.
  std::vector<Status> RunGang(int n, const std::function<Status(int)>& fn);

  /// Number of successful steals since construction (observability; the
  /// work-stealing test asserts this is non-zero under imbalance).
  int64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(int id);
  bool TryRunOneTask(int id);

  // Fixed before any worker starts: workers read size() while the
  // constructor is still growing workers_, so the count must not alias the
  // vector's (racing) size field.
  const int num_workers_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;                  // guards sleeping / wakeup + idle tracking
  std::condition_variable wake_cv_;
  std::condition_variable idle_cv_;
  int64_t pending_ = 0;  // queued + running tasks
  bool shutdown_ = false;

  std::atomic<int64_t> steals_{0};
  std::atomic<int64_t> next_queue_{0};
};

}  // namespace magicdb

#endif  // MAGICDB_PARALLEL_THREAD_POOL_H_
