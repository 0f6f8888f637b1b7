// Backend-conformance suite: every ExecutionBackend this build can
// construct must honour the contract of gpu/backend.hpp — boundary
// callbacks exactly once per op, before any work, fail-stop on an
// observer throw, bit-exact functional execution, and (via VirtualGpu)
// fault injection firing at identical op boundaries on every backend.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "gpu/backend.hpp"
#include "gpu/executor.hpp"
#include "gpu/sim_gpu.hpp"

namespace saclo::gpu {
namespace {

/// Records every boundary notification in order.
class RecordingObserver : public OpBoundaryObserver {
 public:
  struct Boundary {
    bool is_kernel = false;
    std::string kernel;       // kernel boundaries
    Dir dir = Dir::HostToDevice;  // transfer boundaries
    std::int64_t bytes = 0;
  };

  void on_kernel_boundary(const KernelLaunch& kernel) override {
    boundaries.push_back({true, std::string(kernel.name), Dir::HostToDevice, 0});
  }
  void on_transfer_boundary(Dir dir, std::int64_t bytes) override {
    boundaries.push_back({false, "", dir, bytes});
  }

  std::vector<Boundary> boundaries;
};

/// A fixed op sequence driven straight at a backend: two kernels (one
/// executed, one accounting-only) around two transfers. Returns the
/// output the executed kernel produced.
std::vector<std::int32_t> drive_sequence(ExecutionBackend& backend, RecordingObserver& observer) {
  backend.set_boundary_observer(&observer);

  std::vector<std::int32_t> data(64);
  std::iota(data.begin(), data.end(), 1);
  std::vector<std::int32_t> device(64);

  backend.transfer(Dir::HostToDevice, 64 * 4, 1,
                   [&](std::int64_t, std::int64_t) { device = data; });

  KernelLaunch scale;
  scale.name = "scale2";
  scale.threads = 64;
  std::span<std::int32_t> dev(device);
  scale.body = [dev](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) dev[static_cast<std::size_t>(i)] *= 2;
  };
  backend.launch_kernel(scale, /*execute=*/true);

  KernelLaunch accounted;
  accounted.name = "accounted";
  accounted.threads = 64;
  accounted.body = [](std::int64_t, std::int64_t) {
    FAIL() << "execute=false must not run the body";
  };
  backend.launch_kernel(accounted, /*execute=*/false);

  std::vector<std::int32_t> back(64);
  backend.transfer(Dir::DeviceToHost, 64 * 4, 1,
                   [&](std::int64_t, std::int64_t) { back = device; });
  return back;
}

TEST(BackendTest, AvailableBackendsAlwaysHasSimAndHost) {
  const std::vector<BackendKind> kinds = available_backends();
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], BackendKind::Sim);
  EXPECT_EQ(kinds[1], BackendKind::Host);
}

TEST(BackendTest, KindNamesRoundTrip) {
  for (BackendKind kind : available_backends()) {
    EXPECT_EQ(parse_backend_kind(backend_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_backend_kind("cuda"), BackendError);
  // Real-runtime names are unknown names: sim and host are the only backends.
  for (const char* removed : {"opencl", "hc"}) {
    try {
      parse_backend_kind(removed);
      ADD_FAILURE() << removed << " parsed";
    } catch (const BackendError& e) {
      EXPECT_NE(std::string(e.what()).find("expected sim or host"), std::string::npos) << e.what();
    }
  }
}

// The conformance core: every available backend reports the exact same
// boundary sequence for the same op sequence, and produces bit-exact
// results. This is the invariant that makes fault injection and the
// differential suites backend-agnostic.
TEST(BackendTest, AllBackendsReportIdenticalOpBoundaries) {
  ThreadPool pool(2);
  std::vector<RecordingObserver::Boundary> reference;
  std::vector<std::int32_t> reference_out;
  for (BackendKind kind : available_backends()) {
    auto backend = make_backend(kind, gtx480(), pool);
    EXPECT_EQ(backend->kind(), kind);
    EXPECT_STREQ(backend->name(), backend_kind_name(kind));
    RecordingObserver observer;
    const std::vector<std::int32_t> out = drive_sequence(*backend, observer);

    ASSERT_EQ(observer.boundaries.size(), 4u) << backend->name();
    EXPECT_FALSE(observer.boundaries[0].is_kernel);
    EXPECT_TRUE(observer.boundaries[1].is_kernel);
    EXPECT_TRUE(observer.boundaries[2].is_kernel)
        << "accounting-only ops still cross the boundary";
    EXPECT_FALSE(observer.boundaries[3].is_kernel);

    if (reference.empty()) {
      reference = observer.boundaries;
      reference_out = out;
      continue;
    }
    ASSERT_EQ(observer.boundaries.size(), reference.size()) << backend->name();
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(observer.boundaries[i].is_kernel, reference[i].is_kernel) << backend->name();
      EXPECT_EQ(observer.boundaries[i].kernel, reference[i].kernel) << backend->name();
      EXPECT_EQ(observer.boundaries[i].dir, reference[i].dir) << backend->name();
      EXPECT_EQ(observer.boundaries[i].bytes, reference[i].bytes) << backend->name();
    }
    EXPECT_EQ(out, reference_out) << backend->name() << " diverged functionally";
  }
}

// Fail-stop: an observer that throws (the fault injector's behaviour)
// must abort the op before any work happened, on every backend.
TEST(BackendTest, ObserverThrowAbortsTheOpBeforeAnyWork) {
  class ThrowingObserver : public OpBoundaryObserver {
   public:
    void on_kernel_boundary(const KernelLaunch&) override {
      throw fault::DeviceFault("injected");
    }
    void on_transfer_boundary(Dir, std::int64_t) override {
      throw fault::DeviceFault("injected");
    }
  };

  ThreadPool pool(1);
  for (BackendKind kind : available_backends()) {
    auto backend = make_backend(kind, gtx480(), pool);
    ThrowingObserver observer;
    backend->set_boundary_observer(&observer);

    bool ran = false;
    KernelLaunch k;
    k.name = "never";
    k.threads = 4;
    k.body = [&ran](std::int64_t, std::int64_t) { ran = true; };
    EXPECT_THROW(backend->launch_kernel(k, true), fault::DeviceFault) << backend->name();
    EXPECT_FALSE(ran) << backend->name() << " ran the body past a faulted boundary";

    std::vector<std::int32_t> src(8, 7);
    std::vector<std::int32_t> dst(8, 0);
    EXPECT_THROW(backend->transfer(Dir::HostToDevice, 32, 1,
                                   [&](std::int64_t, std::int64_t) { dst = src; }),
                 fault::DeviceFault)
        << backend->name();
    EXPECT_EQ(dst, std::vector<std::int32_t>(8, 0))
        << backend->name() << " moved data past a faulted boundary";
  }
}

// Durations: the sim backend charges the analytic model for executed
// and accounting-only launches alike; the host backend measures the
// wall clock for executed ops and falls back to the model otherwise.
TEST(BackendTest, DurationsArePositiveAndModelExactForSim) {
  ThreadPool pool(1);
  KernelLaunch k;
  k.name = "noop";
  k.threads = 256;
  k.cost.flops_per_thread = 8;
  k.body = [](std::int64_t, std::int64_t) {};
  const DeviceSpec spec = gtx480();
  const double modeled = kernel_time_us(spec, k.threads, k.cost);

  auto sim = make_backend(BackendKind::Sim, spec, pool);
  EXPECT_DOUBLE_EQ(sim->launch_kernel(k, true), modeled);
  EXPECT_DOUBLE_EQ(sim->launch_kernel(k, false), modeled);

  auto host = make_backend(BackendKind::Host, spec, pool);
  EXPECT_GT(host->launch_kernel(k, true), 0.0);
  EXPECT_DOUBLE_EQ(host->launch_kernel(k, false), modeled)
      << "accounting-only ops have nothing to measure: model time";

  // Transfers likewise: sim charges the model and runs the move; host
  // times the move, and a transfer without one charges the model.
  const double modeled_copy = transfer_time_us(spec, 4096, Dir::HostToDevice);
  int moves = 0;
  const TransferFn count = [&](std::int64_t, std::int64_t) { ++moves; };
  EXPECT_DOUBLE_EQ(sim->transfer(Dir::HostToDevice, 4096, 1, count), modeled_copy);
  EXPECT_DOUBLE_EQ(sim->transfer(Dir::HostToDevice, 4096, 0, {}), modeled_copy);
  EXPECT_GE(host->transfer(Dir::HostToDevice, 4096, 1, count), 0.0);
  EXPECT_DOUBLE_EQ(host->transfer(Dir::HostToDevice, 4096, 0, {}), modeled_copy);
  EXPECT_EQ(moves, 2);
}

// Fault-boundary parity through the full VirtualGpu stack: the same
// fault plan interrupts the same op, at the same count, on both
// backends — the injector never sees which backend is underneath.
TEST(BackendTest, FaultInjectionFiresAtTheSameBoundaryOnEveryBackend) {
  const auto ops_before_fault = [](BackendKind kind) {
    fault::FaultSpec spec;
    spec.device = 0;
    spec.after_kernels = 2;
    spec.kind = fault::FaultKind::Kernel;
    fault::FaultInjector injector({spec});
    VirtualGpu gpu(gtx480(), 1, kind);
    gpu.set_fault_injector(&injector);

    const BufferHandle buf = gpu.alloc(64 * 4);
    std::vector<std::int32_t> host_data(64, 5);
    gpu.copy_h2d(buf, std::as_bytes(std::span<const std::int32_t>(host_data)), "h2d", true);

    KernelLaunch k;
    k.name = "count";
    k.threads = 64;
    k.body = [](std::int64_t, std::int64_t) {};
    int completed = 0;
    try {
      for (int i = 0; i < 5; ++i) {
        gpu.launch(k, true);
        ++completed;
      }
    } catch (const fault::DeviceFault&) {
    }
    return completed;
  };

  const int sim_ops = ops_before_fault(BackendKind::Sim);
  EXPECT_EQ(sim_ops, 2) << "after_kernels=2: two launches succeed, the third faults";
  for (BackendKind kind : available_backends()) {
    EXPECT_EQ(ops_before_fault(kind), sim_ops) << backend_kind_name(kind);
  }
}

// VirtualGpu surface: the backend is queryable, so traces produced by
// a host-backed device say so (obs::DeviceTrace::backend).
TEST(BackendTest, VirtualGpuExposesItsBackend) {
  VirtualGpu sim(gtx480(), 1);
  EXPECT_EQ(sim.backend_kind(), BackendKind::Sim);
  EXPECT_STREQ(sim.backend_name(), "sim");

  VirtualGpu host(gtx480(), 1, BackendKind::Host);
  EXPECT_EQ(host.backend_kind(), BackendKind::Host);
  EXPECT_STREQ(host.backend_name(), "host");
}

// End-to-end device parity: the same staged computation on a sim and a
// host VirtualGpu produces byte-identical downloads.
TEST(BackendTest, VirtualGpuResultsAreBitExactAcrossBackends) {
  const auto run = [](BackendKind kind) {
    VirtualGpu gpu(gtx480(), 2, kind);
    const BufferHandle buf = gpu.alloc(256 * 4);
    std::vector<std::int32_t> input(256);
    std::iota(input.begin(), input.end(), -100);
    gpu.copy_h2d(buf, std::as_bytes(std::span<const std::int32_t>(input)), "h2d", true);

    auto view = gpu.memory().view<std::int32_t>(buf);
    KernelLaunch k;
    k.name = "mix";
    k.threads = 256;
    k.body = [view](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) {
        auto& x = view[static_cast<std::size_t>(i)];
        x = x * 3 - static_cast<std::int32_t>(i % 7);
      }
    };
    gpu.launch(k, true);

    std::vector<std::int32_t> out(256);
    gpu.copy_d2h(std::as_writable_bytes(std::span<std::int32_t>(out)), buf, "d2h", true);
    return out;
  };

  const std::vector<std::int32_t> reference = run(BackendKind::Sim);
  for (BackendKind kind : available_backends()) {
    EXPECT_EQ(run(kind), reference) << backend_kind_name(kind);
  }
}

// Frame transfers in range form: the converting upload and download
// are bit-exact at every block edge, on one worker and on three, for
// the extremes of the device's 32-bit pixels too.
TEST(BackendTest, FrameTransfersAreBitExactAtEveryBlockEdge) {
  const std::int64_t block = kTransferBlock;
  const std::int64_t sizes[] = {0, 1, block - 1, block, block + 1, 3 * block + 7};
  for (BackendKind kind : available_backends()) {
    for (unsigned workers : {1u, 3u}) {
      VirtualGpu gpu(gtx480(), workers, kind);
      for (std::int64_t n : sizes) {
        std::vector<std::int64_t> frame(static_cast<std::size_t>(n));
        for (std::size_t i = 0; i < frame.size(); ++i) {
          frame[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(i) * 2654435761u);
        }
        if (n > 0) frame.front() = std::numeric_limits<std::int32_t>::min();
        if (n > 1) frame.back() = std::numeric_limits<std::int32_t>::max();
        const BufferHandle buf = gpu.alloc(n * 4);
        gpu.upload_frame(buf, frame, "h2d");
        const auto dev = gpu.memory().view<std::int32_t>(buf);
        EXPECT_TRUE(std::equal(dev.begin(), dev.end(), frame.begin(), frame.end()))
            << backend_kind_name(kind) << ", " << workers << " workers, " << n << " elements";
        EXPECT_TRUE(gpu.download_frame(buf, "d2h") == frame)
            << backend_kind_name(kind) << ", " << workers << " workers, " << n << " elements";
        gpu.free(buf);
      }
    }
  }
}

// One fault boundary per transfer, before any block moves: with
// after_transfers=2 two multi-block uploads land whole, and the third
// faults with the device block still poisoned; a faulted download
// returns nothing.
TEST(BackendTest, TransferFaultsFireOncePerTransferBeforeAnyBlockMoves) {
  constexpr std::int32_t kPoison = 0x5A5A5A5A;
  const std::int64_t n = 3 * kTransferBlock + 7;
  const std::vector<std::int64_t> frame(static_cast<std::size_t>(n), 9);
  for (BackendKind kind : available_backends()) {
    for (unsigned workers : {1u, 3u}) {
      fault::FaultSpec spec;
      spec.device = 0;
      spec.after_transfers = 2;
      spec.kind = fault::FaultKind::Transfer;
      fault::FaultInjector injector({spec});
      VirtualGpu gpu(gtx480(), workers, kind);
      gpu.set_fault_injector(&injector);
      const BufferHandle buf = gpu.alloc(n * 4);
      const auto dev = gpu.memory().view<std::int32_t>(buf);

      gpu.upload_frame(buf, frame, "h2d");
      gpu.upload_frame(buf, frame, "h2d");
      EXPECT_EQ(injector.transfers_seen(), 2) << backend_kind_name(kind);
      EXPECT_EQ(injector.faults_fired(), 0) << backend_kind_name(kind);
      std::fill(dev.begin(), dev.end(), kPoison);
      EXPECT_THROW(gpu.upload_frame(buf, frame, "h2d"), fault::DeviceFault)
          << backend_kind_name(kind);
      EXPECT_EQ(injector.faults_fired(), 1) << backend_kind_name(kind);
      EXPECT_TRUE(std::all_of(dev.begin(), dev.end(), [](std::int32_t v) { return v == kPoison; }))
          << backend_kind_name(kind) << ", " << workers << " workers: a block moved past the fault";

      fault::FaultInjector next({spec});
      gpu.set_fault_injector(&next);
      EXPECT_EQ(gpu.download_frame(buf, "d2h").size(), static_cast<std::size_t>(n));
      EXPECT_EQ(gpu.download_frame(buf, "d2h").size(), static_cast<std::size_t>(n));
      EXPECT_THROW(gpu.download_frame(buf, "d2h"), fault::DeviceFault) << backend_kind_name(kind);
      EXPECT_EQ(next.transfers_seen(), 2) << backend_kind_name(kind);
      gpu.set_fault_injector(nullptr);
      gpu.free(buf);
    }
  }
}

}  // namespace
}  // namespace saclo::gpu
