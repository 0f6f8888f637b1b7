#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace saclo {

/// Reusable per-thread scratch for the lane-major rows of a block of
/// work items. Each thread keeps a stack of buffers that only grow, so
/// a steady-state kernel allocates nothing, and a body nested inside
/// another (a combinator inside a combinator, inside a launch body)
/// takes a buffer of its own rather than the one its caller is still
/// reading. Objects live on the stack and are released in reverse
/// order.
class ScratchRows {
 public:
  explicit ScratchRows(std::size_t size) {
    std::vector<std::vector<std::int64_t>>& pool = buffers();
    const std::size_t level = depth();
    if (pool.size() <= level) pool.resize(level + 1);
    if (pool[level].size() < size) pool[level].resize(size);
    rows_ = std::span<std::int64_t>(pool[level].data(), size);
    ++depth();
  }
  ~ScratchRows() { --depth(); }
  ScratchRows(const ScratchRows&) = delete;
  ScratchRows& operator=(const ScratchRows&) = delete;

  std::span<std::int64_t> rows() const { return rows_; }

 private:
  static std::size_t& depth() {
    thread_local std::size_t d = 0;
    return d;
  }
  static std::vector<std::vector<std::int64_t>>& buffers() {
    thread_local std::vector<std::vector<std::int64_t>> pool;
    return pool;
  }

  std::span<std::int64_t> rows_;
};

}  // namespace saclo
