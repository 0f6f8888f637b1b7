#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gpu/backend_kind.hpp"
#include "gpu/cost_model.hpp"
#include "gpu/device.hpp"
#include "gpu/memory.hpp"
#include "gpu/stream.hpp"

namespace saclo::gpu {

class ThreadPool;

/// A kernel ready to launch: a name (for profiling), a 1-D thread count
/// (grids are linearised by the code generators, which matches how both
/// generated-code styles compute a global id), a static cost descriptor,
/// and the functional body.
struct KernelLaunch {
  std::string name;
  std::int64_t threads = 0;
  KernelCost cost;
  /// The body processes every global thread id in [begin, end) with a
  /// tight inner loop, so per-chunk scratch is set up once and the id
  /// loop is the compiler's to vectorise. It must be safe to call
  /// concurrently for disjoint ranges (single-assignment output, as both
  /// source languages guarantee). A launch without a body only accrues
  /// model time.
  std::function<void(std::int64_t begin, std::int64_t end)> body;
  /// Device buffers the kernel reads/writes — the data hazards that
  /// order it against operations on other streams. Empty lists mean no
  /// cross-stream constraints (single-stream issue stays correct via
  /// stream order alone).
  std::vector<BufferHandle> reads;
  std::vector<BufferHandle> writes;
};

/// Notified exactly once at each operation boundary a backend processes,
/// *before* any work of the operation happens. VirtualGpu installs an
/// adapter that drives the fault injector from these callbacks, which is
/// what guarantees injected faults fire at the same kernel/transfer
/// boundaries on every backend — the backend-conformance suite locks
/// this contract down.
class OpBoundaryObserver {
 public:
  virtual ~OpBoundaryObserver() = default;
  virtual void on_kernel_boundary(const KernelLaunch& kernel) = 0;
  virtual void on_transfer_boundary(Dir dir, std::int64_t bytes) = 0;
};

/// Where the work of a VirtualGpu actually happens: the kernel-launch
/// and transfer entry points extracted from the original simulator, so
/// `sim` is just one implementation.
///
/// Contract every backend must honour (see backend_test.cpp):
///  - launch_kernel / transfer notify the boundary observer exactly
///    once, before any side effect, and let its exceptions (injected
///    DeviceFaults) escape without running the operation — fail-stop.
///  - with execute=true the data really moves / the body really runs
///    (bit-exact results across backends); with execute=false only a
///    duration is returned (simulated repetition of an identical op).
///  - the returned duration is microseconds on the device timeline:
///    analytic model time for `sim`, measured wall time for `host`.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual BackendKind kind() const = 0;
  const char* name() const { return backend_kind_name(kind()); }

  /// The fault-boundary hook. VirtualGpu installs its adapter at
  /// construction; nullptr (the default) makes boundaries free.
  void set_boundary_observer(OpBoundaryObserver* observer) { observer_ = observer; }
  OpBoundaryObserver* boundary_observer() const { return observer_; }

  /// Kernel-launch entry point; returns the launch's duration in
  /// microseconds.
  virtual double launch_kernel(const KernelLaunch& kernel, bool execute) = 0;

  /// Transfer entry point for *accounted* PCIe traffic (silent
  /// device-resident handoffs never reach the backend). `dst`/`src` are
  /// empty for accounting-only repetitions; otherwise they are the
  /// destination and source bytes of the copy (`bytes` always holds the
  /// logical transfer size). Returns the transfer's duration.
  virtual double transfer(Dir dir, std::span<std::byte> dst, std::span<const std::byte> src,
                          std::int64_t bytes, bool execute) = 0;

 protected:
  /// Backend implementations call these exactly once per operation,
  /// before doing any work.
  void notify_kernel(const KernelLaunch& kernel) {
    if (observer_ != nullptr) observer_->on_kernel_boundary(kernel);
  }
  void notify_transfer(Dir dir, std::int64_t bytes) {
    if (observer_ != nullptr) observer_->on_transfer_boundary(dir, bytes);
  }

 private:
  OpBoundaryObserver* observer_ = nullptr;
};

/// Creates a backend of `kind` executing against `spec`, using `pool`
/// for functional kernel execution. The pool must outlive the backend.
std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind, const DeviceSpec& spec,
                                               ThreadPool& pool);

/// The backends a VirtualGpu can delegate to, in BackendKind order.
std::vector<BackendKind> available_backends();

}  // namespace saclo::gpu
