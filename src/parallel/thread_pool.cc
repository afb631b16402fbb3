#include "src/parallel/thread_pool.h"

#include <chrono>

#include "src/common/logging.h"

namespace magicdb {

ThreadPool::ThreadPool(int num_threads) : num_workers_(num_threads) {
  MAGICDB_CHECK(num_threads >= 1);
  queues_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  const int target = static_cast<int>(
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size());
  SubmitTo(target, std::move(task));
}

void ThreadPool::SubmitTo(int worker, std::function<void()> task) {
  MAGICDB_CHECK(worker >= 0 && worker < size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ += 1;
  }
  {
    std::lock_guard<std::mutex> lock(queues_[worker]->mu);
    queues_[worker]->tasks.push_back(std::move(task));
  }
  wake_cv_.notify_all();
}

bool ThreadPool::TryRunOneTask(int id) {
  std::function<void()> task;
  // Own deque first, newest task (LIFO).
  {
    std::lock_guard<std::mutex> lock(queues_[id]->mu);
    if (!queues_[id]->tasks.empty()) {
      task = std::move(queues_[id]->tasks.back());
      queues_[id]->tasks.pop_back();
    }
  }
  // Then steal the oldest task (FIFO) from a victim, scanning from the next
  // worker around the ring so steals spread instead of piling on worker 0.
  if (!task) {
    const int n = size();
    for (int k = 1; k < n && !task; ++k) {
      WorkerQueue& victim = *queues_[(id + k) % n];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());
        victim.tasks.pop_front();
        steals_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (!task) return false;
  task();
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ -= 1;
    if (pending_ == 0) idle_cv_.notify_all();
  }
  return true;
}

void ThreadPool::WorkerLoop(int id) {
  while (true) {
    if (TryRunOneTask(id)) continue;
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return;
    // Re-check for work under the wakeup lock to close the race between the
    // empty-deque observation and going to sleep.
    wake_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

std::vector<Status> ThreadPool::RunGang(int n,
                                        const std::function<Status(int)>& fn) {
  MAGICDB_CHECK(n >= 1);
  std::vector<Status> results(n, Status::OK());
  std::mutex done_mu;
  std::condition_variable done_cv;
  int done = 0;
  for (int i = 0; i < n; ++i) {
    Submit([&, i] {
      Status s = fn(i);
      std::lock_guard<std::mutex> lock(done_mu);
      results[i] = std::move(s);
      done += 1;
      done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done == n; });
  return results;
}

}  // namespace magicdb
