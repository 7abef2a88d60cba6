#include "common/thread_pool.h"

namespace zeus::common {

namespace {
thread_local bool tls_in_worker = false;
}  // namespace

bool ThreadPool::InWorkerThread() { return tls_in_worker; }

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::WorkerLoop() {
  tls_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ParallelFor(ThreadPool* pool, int n, const std::function<void(int)>& fn) {
  // Run inline when there is no pool to use, nothing to split — or when we
  // *are* the pool (see InWorkerThread).
  if (n <= 1 || pool == nullptr || pool->num_threads() <= 1 ||
      ThreadPool::InWorkerThread()) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  // Completion count for this call's tasks only. The last task notifies
  // while holding the lock, so the caller cannot return and destroy the
  // count before the notify is done.
  std::mutex mu;
  std::condition_variable done;
  int pending = n;
  for (int i = 0; i < n; ++i) {
    pool->Submit([&, i] {
      fn(i);
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&pending] { return pending == 0; });
}

}  // namespace zeus::common
