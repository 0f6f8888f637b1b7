#include "gpu/executor.hpp"

#include <algorithm>

namespace saclo::gpu {

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  // The calling thread participates, so spawn workers-1 helpers.
  for (unsigned i = 1; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (stopping_ && pending_.empty()) return;
      task = pending_.back();
      pending_.pop_back();
    }
    try {
      (*task.fn)(task.begin, task.end);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      --outstanding_;
    }
    work_done_.notify_all();
  }
}

void ThreadPool::parallel_for(std::int64_t n, RangeRef fn) {
  if (n <= 0) return;
  const std::int64_t workers = static_cast<std::int64_t>(worker_count());
  if (workers == 1 || n < 2 * workers) {
    fn(0, n);
    return;
  }
  const std::int64_t chunk = (n + workers - 1) / workers;
  const std::int64_t caller_end = std::min(chunk, n);  // the caller runs the first chunk itself
  {
    std::lock_guard lock(mutex_);
    for (std::int64_t begin = chunk; begin < n; begin += chunk) {
      pending_.push_back(Task{begin, std::min(begin + chunk, n), &fn});
      ++outstanding_;
    }
  }
  work_ready_.notify_all();
  // The caller's own chunk must not unwind past the wait below: pending
  // tasks hold a pointer to `fn`, so leaving early would dangle it.
  try {
    fn(0, caller_end);
  } catch (...) {
    std::lock_guard lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }
  {
    std::unique_lock lock(mutex_);
    work_done_.wait(lock, [this] { return outstanding_ == 0; });
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }
}

}  // namespace saclo::gpu
