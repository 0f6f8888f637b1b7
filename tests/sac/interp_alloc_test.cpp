// The interpreter reads a selected or measured array where it is bound:
// interpreting the paper's generic output tiler allocates a small
// multiple of the frame's bytes, where a copy of that array per element
// made it grow with the square of the frame. This file replaces the global
// operator new with a counting wrapper, so it links into its own test
// binary (sac_alloc_tests) and nothing else.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "apps/downscaler/config.hpp"
#include "apps/downscaler/sac_source.hpp"
#include "sac/interp.hpp"
#include "sac/parser.hpp"

namespace {
std::atomic<std::uint64_t> g_bytes{0};

void* counted(std::size_t size) {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace saclo::sac {
namespace {

Value ints(const Shape& shape, std::vector<std::int64_t> data) {
  return Value(IntArray(shape, std::move(data)));
}

TEST(InterpAllocTest, GenericOutputTilerAllocatesLinearlyInTheFrame) {
  apps::DownscalerConfig cfg;
  cfg.height = 144;
  cfg.width = 256;
  const Module mod = parse(apps::downscaler_sac_source(cfg));
  const std::int64_t tile = cfg.h.tile();
  const Shape rep = cfg.h_repetition();
  const Shape tiles = rep.concat(Shape{tile});
  std::vector<Value> args{
      Value(IntArray(cfg.mid_shape())),
      Value(IntArray::generate(tiles, [](const Index& i) { return i[0] + 7 * i[1] + 3 * i[2]; })),
      ints(Shape{1}, {tile}),
      ints(Shape{2}, {rep[0], rep[1]}),
      ints(Shape{2}, {0, 0}),
      ints(Shape{2, 1}, {0, 1}),
      ints(Shape{2, 2}, {1, 0, 0, tile})};
  Interp interp(mod);
  const std::uint64_t before = g_bytes.load();
  const Value out = interp.call("generic_output_tiler", std::move(args));
  const std::uint64_t bytes = g_bytes.load() - before;

  // Every element of the tiles lands once, in row order.
  ASSERT_EQ(out.shape(), cfg.mid_shape());
  EXPECT_EQ(out.ints().at({5, 3 * 7 + 2}), 5 + 7 * 7 + 3 * 2);
  const auto frame_bytes =
      static_cast<std::uint64_t>(cfg.frame_shape().elements()) * sizeof(std::int64_t);
  // The per-element temporaries (index vectors, scalars, the small
  // tiler matrices) come to ~67x the frame's bytes; a copy of a selected
  // or measured array per element came to ~5300x at this geometry and
  // grows with the square of the frame.
  EXPECT_LT(bytes, 128 * frame_bytes) << bytes << " bytes for a " << frame_bytes
                                      << "-byte frame";
}

}  // namespace
}  // namespace saclo::sac
