#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace saclo::gpu {

/// A non-owning reference to a callable over an id range [begin, end):
/// two pointers, so passing one allocates nothing whatever the callable
/// captures. The callable must outlive every call through the
/// reference, as it does for the duration of a parallel_for.
class RangeRef {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, RangeRef> &&
             std::is_invocable_v<const std::remove_reference_t<F>&, std::int64_t, std::int64_t>)
  RangeRef(const F& fn)  // NOLINT: implicit, as std::function's is
      : fn_(std::addressof(fn)), call_([](const void* f, std::int64_t begin, std::int64_t end) {
          (*static_cast<const F*>(f))(begin, end);
        }) {}

  void operator()(std::int64_t begin, std::int64_t end) const { call_(fn_, begin, end); }

 private:
  const void* fn_;
  void (*call_)(const void*, std::int64_t, std::int64_t);
};

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
  void parallel_for(std::int64_t n, RangeRef fn);

 private:
  struct Task {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    const RangeRef* fn = nullptr;
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
