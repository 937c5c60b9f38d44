// Fixed-size thread pool with a parallel_for convenience wrapper.
//
// The pipeline does not construct pools of its own: every stage (graph
// build, pruning, features, forest fit, classify, LBP) runs on the one
// process-wide instance behind util/parallel.h. Work is partitioned
// statically by index and RNG streams are pre-forked per work item, so
// results do not depend on the pool size.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace seg::util {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, count), partitioned into contiguous chunks
  /// across the pool, and blocks until all complete. Exceptions from tasks
  /// are rethrown (first one wins).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace seg::util
