// The executed frame's host arrays come from the device's host frame
// pool: after one warm-up job per kind, a steady-state executed job
// allocates nothing of input-frame size or larger, and mixed traffic
// keeps the pool at the most frames one job holds at once. A
// steady-state job as the fleet runs it (serve's caching allocator
// installed) stays under a fixed allocation count. This file replaces
// the global operator new with a counting wrapper, so it links into its
// own test binary (apps_alloc_tests) and nothing else.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>

#include "apps/downscaler/pipelines.hpp"
#include "gpu/sim_gpu.hpp"
#include "serve/allocator.hpp"

namespace {
// Counted on every thread: the device's pool helpers fill and copy too.
std::atomic<std::size_t> g_large_bytes{std::numeric_limits<std::size_t>::max()};
std::atomic<std::uint64_t> g_large_allocations{0};
// Every allocation while g_counting is on; a thread's allocations in a
// bookkeeping stretch count apart.
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bookkeeping{0};
thread_local bool t_bookkeeping = false;

void* counted(std::size_t size) {
  if (size >= g_large_bytes.load(std::memory_order_relaxed)) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (g_counting.load(std::memory_order_relaxed)) {
    (t_bookkeeping ? g_bookkeeping : g_allocations).fetch_add(1, std::memory_order_relaxed);
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

// --- allocations per steady-state job --------------------------------------

/// serve's caching allocator, which the fleet installs on every device.
/// Its own bookkeeping (map nodes per live and parked block) counts
/// apart: the gate is on the frame loop, not on the allocator.
class FleetAllocator final : public gpu::BufferAllocator {
 public:
  explicit FleetAllocator(gpu::VirtualGpu& gpu) : cache_(gpu.memory()) {}

  gpu::BufferHandle allocate(std::int64_t bytes) override {
    const Bookkeeping b;
    return cache_.allocate(bytes);
  }
  gpu::BufferHandle allocate_for_overwrite(std::int64_t bytes) override {
    const Bookkeeping b;
    return cache_.allocate_for_overwrite(bytes);
  }
  void free(gpu::BufferHandle handle) override {
    const Bookkeeping b;
    cache_.free(handle);
  }

 private:
  struct Bookkeeping {
    Bookkeeping() { t_bookkeeping = true; }
    ~Bookkeeping() { t_bookkeeping = false; }
  };
  serve::CachingDeviceAllocator cache_;
};

enum class Kind { SacNongeneric, SacGeneric, GaspardO0, GaspardO2 };
constexpr Kind kGateKinds[] = {Kind::SacNongeneric, Kind::SacGeneric, Kind::GaspardO2};

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::SacNongeneric: return "sacng";
    case Kind::SacGeneric: return "sacg";
    case Kind::GaspardO0: return "gaspard_o0";
    case Kind::GaspardO2: return "gaspard_o2";
  }
  return "?";
}

/// One tiny-geometry driver on its own `sim` device, run as a fleet
/// dispatcher runs it: 3 channels, async streams, the caching allocator
/// installed.
class FleetJob {
 public:
  FleetJob(Kind kind, unsigned workers)
      : gpu_(gpu::gtx480(), workers, gpu::BackendKind::Sim), allocator_(gpu_) {
    gpu_.set_allocator(&allocator_);
    const DownscalerConfig cfg = DownscalerConfig::tiny();
    if (kind == Kind::GaspardO0 || kind == Kind::GaspardO2) {
      GaspardDownscaler::Options opts;
      opts.workers = workers;
      opts.async_streams = true;
      opts.opt_level = kind == Kind::GaspardO2 ? 2 : 0;
      gaspard_ = std::make_unique<GaspardDownscaler>(cfg, opts);
    } else {
      SacDownscaler::Options opts;
      opts.generic = kind == Kind::SacGeneric;
      opts.workers = workers;
      opts.async_streams = true;
      sac_ = std::make_unique<SacDownscaler>(cfg, opts);
    }
  }
  ~FleetJob() { gpu_.set_allocator(nullptr); }

  /// The allocations of one job of `frames` frames, the first
  /// `exec_frames` of them executed, after two warm-up jobs of the same
  /// shape.
  std::uint64_t allocations(int frames, int exec_frames) {
    run(frames, exec_frames);
    run(frames, exec_frames);
    g_allocations = 0;
    g_bookkeeping = 0;
    g_counting = true;
    run(frames, exec_frames);
    g_counting = false;
    return g_allocations.load();
  }

 private:
  void run(int frames, int exec_frames) {
    if (gaspard_) {
      gaspard_->run_on(gpu_, frames, exec_frames);
    } else {
      sac_->run_cuda_chain_on(gpu_, frames, 3, exec_frames);
    }
  }

  gpu::VirtualGpu gpu_;
  FleetAllocator allocator_;
  std::unique_ptr<SacDownscaler> sac_;
  std::unique_ptr<GaspardDownscaler> gaspard_;
};

/// Allocations of one steady-state job of 4 frames before launches were
/// bound at plan time: executed on 1 and on 3 workers, and timing-only.
std::uint64_t parent_allocations(Kind kind, bool executed, unsigned workers) {
  const bool one = workers == 1;
  switch (kind) {
    case Kind::SacNongeneric: return executed ? (one ? 2625 : 3825) : 1964;
    case Kind::SacGeneric: return executed ? (one ? 2623 : 3247) : 1542;
    case Kind::GaspardO2: return executed ? (one ? 1305 : 1529) : 1110;
    case Kind::GaspardO0: break;
  }
  return 0;
}

class LaunchAllocTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(LaunchAllocTest, SteadyStateJobsAllocateATenthOfTheParentsCount) {
  for (const Kind kind : kGateKinds) {
    FleetJob job(kind, GetParam());
    for (const bool executed : {true, false}) {
      const std::uint64_t n = job.allocations(4, executed ? 4 : 0);
      std::printf("%s %s, %u workers: %llu allocations (+%llu allocator bookkeeping)\n",
                  kind_name(kind), executed ? "executed" : "timing-only", GetParam(),
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(g_bookkeeping.load()));
      EXPECT_LE(n * 10, parent_allocations(kind, executed, GetParam()))
          << kind_name(kind) << (executed ? " executed" : " timing-only");
    }
  }
}

// A frame's allocations are the count of a 2F-frame job minus that of
// an F-frame job, over F. A timing-only frame makes none, bar the
// amortised growth of the device's append-only logs (the profiler's
// intervals, the timeline's events). An executed frame makes the same
// number whatever the kernels it launches: GASPARD at O0 launches six
// kernels a frame, at O2 one, and downloads the same three outputs.
TEST_P(LaunchAllocTest, NoCountGrowsWithTheKernelsLaunched) {
  constexpr int kFrames = 8;
  std::uint64_t gaspard_per_frame[2] = {0, 0};
  for (const Kind kind : {Kind::SacNongeneric, Kind::SacGeneric, Kind::GaspardO0,
                          Kind::GaspardO2}) {
    FleetJob job(kind, GetParam());
    const std::uint64_t timing = job.allocations(kFrames, 0);
    const std::uint64_t timing2 = job.allocations(2 * kFrames, 0);
    EXPECT_LE(timing2, timing + 2) << kind_name(kind) << ": timing-only frames allocate";
    const std::uint64_t exec = job.allocations(kFrames, kFrames);
    const std::uint64_t exec2 = job.allocations(2 * kFrames, 2 * kFrames);
    ASSERT_GE(exec2, exec) << kind_name(kind);
    // Rounded: the logs' growth adds an allocation now and then.
    const std::uint64_t per_frame = (exec2 - exec + kFrames / 2) / kFrames;
    std::printf("%s, %u workers: %llu allocations per executed frame\n", kind_name(kind),
                GetParam(), static_cast<unsigned long long>(per_frame));
    if (kind == Kind::GaspardO0) gaspard_per_frame[0] = per_frame;
    if (kind == Kind::GaspardO2) gaspard_per_frame[1] = per_frame;
  }
  EXPECT_EQ(gaspard_per_frame[0], gaspard_per_frame[1]);
}

INSTANTIATE_TEST_SUITE_P(Workers, LaunchAllocTest, ::testing::Values(1u, 3u),
                         [](const auto& info) { return std::to_string(info.param) + "w"; });

}  // namespace
}  // namespace saclo::apps
