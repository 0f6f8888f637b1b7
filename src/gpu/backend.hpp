#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
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
/// and the functional body. The name and the hazard lists are views of
/// storage the issuer keeps alive for the launch call, so building a
/// launch allocates nothing.
struct KernelLaunch {
  std::string_view name;
  std::int64_t threads = 0;
  KernelCost cost;
  /// The body processes every global thread id in [begin, end) with a
  /// tight inner loop, so per-chunk scratch is set up once and the id
  /// loop is the compiler's to vectorise. It must be safe to call
  /// concurrently for disjoint ranges (single-assignment output, as both
  /// source languages guarantee). A launch without a body only accrues
  /// model time. The drivers' bodies capture one pointer to state that
  /// outlives the launch, which std::function keeps without allocating.
  std::function<void(std::int64_t begin, std::int64_t end)> body;
  /// Device buffers the kernel reads/writes — the data hazards that
  /// order it against operations on other streams. Empty lists mean no
  /// cross-stream constraints (single-stream issue stays correct via
  /// stream order alone).
  std::span<const BufferHandle> reads;
  std::span<const BufferHandle> writes;
};

/// The dimension a host kernel body walks fastest: among the id
/// space's dimensions of extent > 1, the one whose step moves the
/// output by the fewest elements (0 when no step moves it). Generated
/// GPU code keeps its own id mapping (dimension 0 fastest, the
/// simulated GPU's); items are independent under single assignment, so
/// the order in which the host visits them is the host's to choose, and
/// walking in memory order makes consecutive items store next to each
/// other.
inline std::size_t host_walk_dim(std::span<const std::int64_t> extents,
                                 std::span<const std::int64_t> output_strides) {
  std::size_t best = 0;
  std::int64_t best_stride = 0;
  for (std::size_t d = 0; d < extents.size(); ++d) {
    const std::int64_t stride = std::llabs(output_strides[d]);
    if (extents[d] > 1 && stride != 0 && (best_stride == 0 || stride < best_stride)) {
      best = d;
      best_stride = stride;
    }
  }
  return best;
}

/// Work items a host kernel body runs per dispatch: a block of up to
/// kLanes consecutive items along the walk dimension goes through each
/// tape instruction together, the way a warp issues one instruction for
/// all of its threads. At most kMaxTapeLanes (core/tape.hpp).
inline constexpr int kLanes = 128;

/// The i-th dimension a host body decodes an id into: the walk
/// dimension first, then the others in index order.
constexpr std::size_t walk_order(std::size_t i, std::size_t walk) {
  return i == 0 ? walk : (i <= walk ? i - 1 : i);
}

/// Elements per block of an executed transfer. A move is cut into
/// blocks of this many elements, and the device's worker pool runs
/// disjoint block ranges concurrently, as it runs kernel bodies.
inline constexpr std::int64_t kTransferBlock = 64 * 1024;

/// The blocks a transfer of `elements` elements moves in.
constexpr std::int64_t transfer_blocks(std::int64_t elements) {
  return (elements + kTransferBlock - 1) / kTransferBlock;
}

/// Moves blocks [begin, end) of one executed transfer: a plain byte
/// copy, or one that converts between the host and device element
/// types on the way (int64 host frames to int32 device frames and
/// back). Like a kernel body it must be safe to call concurrently for
/// disjoint ranges; VirtualGpu's moves capture one pointer, so they
/// allocate nothing either.
using TransferFn = std::function<void(std::int64_t begin, std::int64_t end)>;

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
///  - with execute=true (a transfer: a move function) the data really
///    moves / the body really runs (bit-exact results across backends),
///    both through the worker pool's parallel_for;
///    otherwise only a duration is returned (simulated repetition of an
///    identical op).
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

  /// Transfer entry point for every PCIe transfer. `bytes` is the
  /// logical (device-side) transfer size. An executed transfer passes
  /// the `move` that performs it over `blocks` blocks; an empty one is
  /// an accounting-only repetition. Returns the transfer's duration.
  virtual double transfer(Dir dir, std::int64_t bytes, std::int64_t blocks,
                          const TransferFn& move) = 0;

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
