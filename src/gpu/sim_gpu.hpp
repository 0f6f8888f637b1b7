#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gpu/backend.hpp"
#include "gpu/cost_model.hpp"
#include "gpu/device.hpp"
#include "gpu/executor.hpp"
#include "gpu/memory.hpp"
#include "gpu/profiler.hpp"
#include "gpu/stream.hpp"

namespace saclo::fault {
class FaultInjector;
}  // namespace saclo::fault

namespace saclo::gpu {

/// The virtual GPU: device memory + a pluggable execution backend + the
/// analytic multi-stream clock + profiler.
///
/// The backend (see gpu/backend.hpp) owns what an operation *does* and
/// what it costs: `sim` (the default) runs kernel bodies functionally
/// and charges the calibrated cost model; `host` runs the same bodies
/// and charges measured wall time. VirtualGpu keeps everything
/// backend-independent — memory pool, stream timeline, profiling, fault
/// boundaries — so results are bit-exact across backends by
/// construction.
///
/// Every operation takes an `execute` flag: with execute=true the data
/// movement / kernel body really runs (bit-exact results); with
/// execute=false only time is accrued. Pipelines use this to validate a
/// few frames functionally and then account the remaining repetitions
/// of an identical-cost operation without re-running them.
///
/// Operations land on a stream (default: stream 0). Functional
/// execution always happens immediately in issue order — only the
/// simulated timeline overlaps — so results are bit-exact regardless of
/// the stream assignment, provided the issue order itself respects data
/// dependences (it is the program order of the pipeline).
class VirtualGpu : private OpBoundaryObserver {
 public:
  explicit VirtualGpu(DeviceSpec spec, unsigned workers = 0,
                      BackendKind backend = BackendKind::Sim);
  ~VirtualGpu() override;

  const DeviceSpec& spec() const { return spec_; }
  DeviceMemoryPool& memory() { return memory_; }
  /// The execution backend every kernel launch and transfer
  /// routes through.
  ExecutionBackend& backend() { return *backend_; }
  BackendKind backend_kind() const { return backend_->kind(); }
  const char* backend_name() const { return backend_->name(); }
  /// The allocator buffer creation routes through: an installed caching
  /// layer (serve's CachingDeviceAllocator) if there is one, else the
  /// memory pool. Install with nullptr to restore the memory pool.
  BufferAllocator& allocator() { return allocator_ != nullptr ? *allocator_ : memory_; }
  void set_allocator(BufferAllocator* allocator) { allocator_ = allocator; }
  /// The host frame buffers executed frames borrow (see HostFramePool).
  HostFramePool& host_frames() { return host_frames_; }
  /// The worker pool that runs kernel bodies and transfer blocks; the
  /// drivers fill their host frames on it too.
  ThreadPool& workers() { return pool_; }
  /// Installs a fault injector the device consults before every kernel
  /// launch and transfer (fail-stop: a faulted operation does
  /// not run and accrues no simulated time). nullptr uninstalls —
  /// that's also the default, so the fault machinery costs nothing when
  /// unused. The injector must outlive the device or be uninstalled.
  /// Faults fire from the backend's op-boundary callbacks, so the
  /// boundaries are identical on every backend.
  void set_fault_injector(fault::FaultInjector* injector) { fault_ = injector; }
  fault::FaultInjector* fault_injector() const { return fault_; }
  Profiler& profiler() { return profiler_; }
  const Profiler& profiler() const { return profiler_; }
  /// Brackets one serving job's execution on this device: every kernel,
  /// transfer and host block profiled in between carries the job's
  /// trace id, failover attempt and (when coalesced) batch id, which is
  /// what lets the fleet-merged Chrome trace reconstruct a request
  /// across devices. Plain stores — zero allocations, so an untraced
  /// dispatch path pays nothing.
  void begin_job_trace(std::uint64_t trace_id, std::uint32_t attempt, std::uint64_t batch = 0) {
    profiler_.set_trace(trace_id, attempt, batch);
  }
  void end_job_trace() { profiler_.clear_trace(); }
  const Timeline& timeline() const { return timeline_; }

  /// Simulated wall clock: the makespan over all streams. With every
  /// operation on the default stream this equals the serialized sum of
  /// op times (the pre-stream behaviour).
  double clock_us() const { return timeline_.makespan_us(); }
  /// Current tail of one stream's timeline.
  double stream_tail_us(StreamId stream) const { return timeline_.tail_us(stream); }

  /// Creates a new stream (cudaStreamCreate / clCreateCommandQueue).
  StreamId create_stream() { return timeline_.create_stream(); }
  /// Captures the tail of `stream` as an event (cudaEventRecord).
  EventId record_event(StreamId stream) { return timeline_.record_event(stream); }
  /// Orders `stream` after `event` (cudaStreamWaitEvent).
  void wait_event(StreamId stream, EventId event) { timeline_.wait_event(stream, event); }
  /// Pushes the tail of `stream` to at least `time_us`.
  void wait_until(StreamId stream, double time_us) { timeline_.wait_until(stream, time_us); }
  /// Device-wide barrier: every stream's tail reaches the makespan.
  void synchronize() { timeline_.synchronize(); }

  BufferHandle alloc(std::int64_t bytes) { return allocator().allocate(bytes); }
  void free(BufferHandle h) { allocator().free(h); }

  /// The one transfer path: `bytes` logical bytes between the host and
  /// device buffer `touched` — the buffer the transfer writes (H2D) or
  /// reads (D2H), its data hazard; pass an invalid handle for none.
  /// `op` is the profiler row name (e.g. the CUDA-style
  /// "memcpyHtoDasync"). `move` performs an executed transfer (a plain
  /// or a converting copy) over `blocks` blocks, on the worker pool; an
  /// empty one accrues time only (simulated repetition). Every transfer
  /// is charged on its logical bytes and crosses one fault boundary,
  /// before any block moves.
  void transfer(Dir dir, BufferHandle touched, std::int64_t bytes, std::string_view op,
                std::int64_t blocks, const TransferFn& move, StreamId stream = kDefaultStream);
  /// Host-to-device byte copy of `src` into the front of `dst`.
  void copy_h2d(BufferHandle dst, std::span<const std::byte> src, std::string_view op,
                bool execute, StreamId stream = kDefaultStream);
  /// Device-to-host byte copy of the front of `src` into `dst`.
  void copy_d2h(std::span<std::byte> dst, BufferHandle src, std::string_view op, bool execute,
                StreamId stream = kDefaultStream);

  /// Frame transfers: device frames are the paper's 32-bit pixels (and
  /// their PCIe cost is modelled as such). An executed input frame is
  /// made in that format on the host (HostFramePool), so its upload is
  /// a plain copy. The int64 overload serves the sac::Value arrays the
  /// SaC route keeps on the host (its interpreter's and host loop
  /// nests'), as does the download: those moves convert straight
  /// between the host array and the device block, with no staging copy
  /// — so `host` times the conversion, and on every backend it runs
  /// after the fault boundary. A download sizes its result up front
  /// and the blocks convert into it.
  void upload_frame(BufferHandle dst, std::span<const std::int32_t> src, std::string_view op,
                    StreamId stream = kDefaultStream);
  void upload_frame(BufferHandle dst, std::span<const std::int64_t> src, std::string_view op,
                    StreamId stream = kDefaultStream);
  std::vector<std::int64_t> download_frame(BufferHandle src, std::string_view op,
                                           StreamId stream = kDefaultStream);

  /// Accrues transfer time without moving data (simulated repetition).
  void account_transfer(std::int64_t bytes, Dir dir, std::string_view op,
                        StreamId stream = kDefaultStream, BufferHandle touched = {}) {
    transfer(dir, touched, bytes, op, 0, {}, stream);
  }

  /// Launches a kernel; returns its duration in microseconds. With
  /// execute=false only the launch's time accrues.
  double launch(const KernelLaunch& kernel, bool execute, StreamId stream = kDefaultStream);

  /// Schedules `us` microseconds of host-side work (a tiler loop, glue
  /// code) on `stream` — a host timeline interleaved with the device
  /// streams, so host stages take part in the makespan. Returns the
  /// scheduled end time.
  double run_host(std::string_view op, double us, StreamId stream);

 private:
  // The backend's op-boundary callbacks, fired exactly once before each
  // kernel launch / transfer — where the fault injector hooks
  // in, on every backend alike.
  void on_kernel_boundary(const KernelLaunch& kernel) override;
  void on_transfer_boundary(Dir dir, std::int64_t bytes) override;

  DeviceSpec spec_;
  DeviceMemoryPool memory_;
  HostFramePool host_frames_;
  BufferAllocator* allocator_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  ThreadPool pool_;
  // Declared after pool_: the backend holds a reference to the pool and
  // must be destroyed first.
  std::unique_ptr<ExecutionBackend> backend_;
  Profiler profiler_;
  Timeline timeline_;
};

}  // namespace saclo::gpu
