#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace saclo::gpu {

/// A fixed-size worker pool used for the *functional* execution of
/// kernels: every launched kernel body really runs over every thread
/// index, so results are bit-exact regardless of the timing model.
///
/// parallel_for partitions [0, n) into per-worker chunks. Worker count
/// defaults to the host's hardware concurrency; on a single-core host
/// the pool degenerates to serial execution, which is still correct —
/// simulated GPU time is produced by the cost model, not by wall-clock.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned worker_count() const { return static_cast<unsigned>(threads_.size()) + 1; }

  /// Covers [0, n) with disjoint contiguous chunks, one per worker, and
  /// invokes fn(begin, end) once per chunk. Blocks until every chunk
  /// completes. Exceptions from fn propagate to the caller (first one
  /// wins).
  void parallel_for(std::int64_t n, const std::function<void(std::int64_t, std::int64_t)>& fn);

 private:
  struct Task {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
  };

  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::vector<Task> pending_;
  std::size_t outstanding_ = 0;
  std::exception_ptr error_;
  bool stopping_ = false;
};

}  // namespace saclo::gpu
