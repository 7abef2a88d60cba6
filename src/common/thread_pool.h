#ifndef ZEUS_COMMON_THREAD_POOL_H_
#define ZEUS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace zeus::common {

// Minimal fixed-size thread pool for intra-op parallelism: the GEMM row/col
// partitions and the Conv2d/Conv3d minibatch splits, all through
// ParallelFor. Tasks are plain std::function<void()>.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues one task.
  void Submit(std::function<void()> task);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // True when the calling thread is a worker of *any* ThreadPool in the
  // process. ParallelFor uses this to run nested parallel sections inline:
  // a worker that fanned out and then blocked on its own tasks would hold a
  // worker slot those tasks may need, so nested fan-out could deadlock.
  static bool InWorkerThread();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;  // signals workers
  bool stop_ = false;
};

// Runs fn(i) for i in [0, n) across the pool and returns once those n calls
// have finished; tasks other callers have on the pool are not waited for.
// Runs inline when the pool is null or single-threaded, when n <= 1, or on a
// pool worker.
void ParallelFor(ThreadPool* pool, int n, const std::function<void(int)>& fn);

}  // namespace zeus::common

#endif  // ZEUS_COMMON_THREAD_POOL_H_
