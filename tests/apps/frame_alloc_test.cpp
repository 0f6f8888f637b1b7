// The executed frame's host arrays come from the device's host frame
// pool: after one warm-up job per kind, a steady-state executed job
// allocates nothing of input-frame size or larger, and mixed traffic
// keeps the pool at the most frames one job holds at once. This file
// replaces the global operator new with a counting wrapper, so it links
// into its own test binary (apps_alloc_tests) and nothing else.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>

#include "apps/downscaler/pipelines.hpp"
#include "gpu/sim_gpu.hpp"

namespace {
// Counted on every thread: the device's pool helpers fill and copy too.
std::atomic<std::size_t> g_large_bytes{std::numeric_limits<std::size_t>::max()};
std::atomic<std::uint64_t> g_large_allocations{0};

void* counted(std::size_t size) {
  if (size >= g_large_bytes.load(std::memory_order_relaxed)) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
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

namespace saclo::apps {
namespace {

constexpr const char* kKinds[] = {"sacng", "gaspard_o0", "gaspard_o2"};

SacDownscaler::Options sac_options() {
  SacDownscaler::Options opts;
  opts.workers = 3;
  opts.async_streams = true;
  return opts;
}

GaspardDownscaler::Options gaspard_options(int opt_level) {
  GaspardDownscaler::Options opts;
  opts.workers = 3;
  opts.async_streams = true;
  opts.opt_level = opt_level;
  return opts;
}

/// The drivers of one geometry, run as the serving runtime runs them: 3
/// channels, async streams, every frame executed.
struct Drivers {
  SacDownscaler sacng;
  GaspardDownscaler gaspard_o0;
  GaspardDownscaler gaspard_o2;

  explicit Drivers(const DownscalerConfig& cfg)
      : sacng(cfg, sac_options()),
        gaspard_o0(cfg, gaspard_options(0)),
        gaspard_o2(cfg, gaspard_options(2)) {}

  /// One executed two-frame job of kKinds[kind] on `gpu`.
  void run(std::size_t kind, gpu::VirtualGpu& gpu) {
    constexpr int kFrames = 2;
    if (kind == 0) sacng.run_cuda_chain_on(gpu, kFrames, 3, kFrames);
    if (kind == 1) gaspard_o0.run_on(gpu, kFrames, kFrames);
    if (kind == 2) gaspard_o2.run_on(gpu, kFrames, kFrames);
  }
};

TEST(FrameAllocTest, SteadyStateExecutedJobsAllocateNoInputSizedArray) {
  const DownscalerConfig cfg = DownscalerConfig::small();
  gpu::VirtualGpu gpu(gpu::gtx480(), 3, gpu::BackendKind::Host);
  Drivers drivers(cfg);
  for (std::size_t kind = 0; kind < 3; ++kind) drivers.run(kind, gpu);  // warm-up

  const auto frame_bytes = static_cast<std::size_t>(cfg.frame_shape().elements()) * 8;
  for (std::size_t kind = 0; kind < 3; ++kind) {
    g_large_allocations = 0;
    g_large_bytes = frame_bytes;
    drivers.run(kind, gpu);
    g_large_bytes = std::numeric_limits<std::size_t>::max();
    EXPECT_EQ(g_large_allocations.load(), 0u)
        << kKinds[kind] << ": allocations of " << frame_bytes << " bytes or more";
  }
  EXPECT_EQ(gpu.host_frames().retained(), 3u);
}

TEST(FrameAllocTest, MixedJobsRetainAtMostOneJobsFrames) {
  gpu::VirtualGpu gpu(gpu::gtx480(), 3, gpu::BackendKind::Host);
  Drivers small(DownscalerConfig::small());
  Drivers tiny(DownscalerConfig::tiny());
  for (std::size_t job = 0; job < 20; ++job) {
    const std::size_t kind = job / 2 % 3;
    (job % 2 == 0 ? small : tiny).run(kind, gpu);
    EXPECT_LE(gpu.host_frames().retained(), 3u)
        << "after job " << job << " (" << kKinds[kind] << ")";
  }
}

}  // namespace
}  // namespace saclo::apps
