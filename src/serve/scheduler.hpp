#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "fault/plan.hpp"
#include "gpu/sim_gpu.hpp"
#include "obs/alerts.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "serve/admission.hpp"
#include "serve/allocator.hpp"
#include "serve/job.hpp"
#include "serve/metrics.hpp"
#include "serve/sched_core.hpp"

namespace saclo::serve {

/// The multi-GPU serving runtime: accepts concurrent downscale jobs
/// through a bounded, backpressured submission queue and schedules them
/// across a fleet of simulated devices.
///
///   submit()/try_submit()  -- any thread, blocks when the fleet-wide
///        |                    backlog reaches queue_capacity
///        v  least-loaded placement (cost-model estimate per route)
///   per-device queue  -->  dispatcher thread (one per device)
///        |                    owns a VirtualGpu + caching allocator +
///        |                    per-(route, geometry) compiled drivers
///        v
///   std::future<JobResult>   per-job results, timing and device id
///
/// Each job replays the double-buffered multi-stream frame loops on its
/// device, so fleet results are bit-exact against single-device runs.
/// Every scheduling decision — placement, policy order, batching,
/// preemption, stealing, retries, healing, draining — is made by a
/// SchedCore under mutex_; this class is the threaded shell that runs
/// jobs, waits, and records what the core decided. A device is only
/// touched by its own dispatcher, which publishes the device clock into
/// the core at every job boundary.
///
/// Fault tolerance: with a fault_plan installed, a device may throw
/// fault::DeviceFault mid-job. The dispatcher sweeps leaked buffers back
/// into the caching allocator, and the core degrades the device and
/// fails the job over behind a capped exponential backoff — up to
/// max_retries times, after which the future carries the DeviceFault.
/// A failed attempt executed nothing externally visible, so a retried
/// job stays bit-exact against a fault-free run.
class ServeRuntime {
 public:
  /// The scheduling knobs (policy, preemption, work_stealing,
  /// batch_max, retries and backoff, degraded cooldown, warm-up) are
  /// SchedConfig's; see sched_core.hpp.
  struct Options : SchedConfig {
    int devices = 2;
    /// Fleet-wide bound on accepted-but-unfinished jobs; submit()
    /// blocks (and try_submit() fails) once the backlog reaches it.
    std::size_t queue_capacity = 32;
    gpu::DeviceSpec device = gpu::gtx480();
    gpu::HostSpec host = gpu::i7_930();
    unsigned workers_per_device = 1;  ///< thread-pool width for functional kernels
    /// Execution backend every device delegates to (gpu/backend.hpp).
    /// Results are bit-exact across backends; only how op durations
    /// are produced differs.
    gpu::BackendKind backend = gpu::BackendKind::Sim;
    /// Accept jobs but don't dispatch until resume() — deterministic
    /// placement and queue-depth tests.
    bool start_paused = false;
    /// How long a dispatcher holds an underfull batch open for more
    /// same-key arrivals (real ms). 0 coalesces only what is queued.
    double batch_wait_ms = 0.0;

    // -- multi-tenant admission -----------------------------------------------
    /// Per-tenant token bucket: sustained jobs per second (0 disables).
    /// Over-limit submissions are shed: their future resolves at once
    /// with a typed ShedError — it never hangs.
    double tenant_rate_limit = 0.0;
    double tenant_rate_burst = 4.0;  ///< bucket depth (>= 1 when limiting)
    /// Shed (typed ShedError, jobs_shed metric) instead of blocking
    /// when the fleet backlog is at queue_capacity.
    bool shed_on_full = false;

    // -- elastic autoscaling --------------------------------------------------
    /// Upper bound of an elastic fleet; 0 keeps a fixed fleet (scale_up
    /// and scale_down throw). Otherwise all max_devices slots are built
    /// at construction — the first `devices` active, the rest parked —
    /// so scaling is a state flip, never a racy device bring-up.
    int max_devices = 0;
    /// Per-size-class cap on each device allocator's parked bytes (see
    /// CachingDeviceAllocator); 0 = uncapped.
    std::int64_t alloc_class_cap_bytes = 0;

    /// Fault-injection schedule installed on the fleet's devices at
    /// construction (empty = no injection, zero overhead).
    fault::FaultPlan fault_plan;

    // -- observability --------------------------------------------------------
    /// Capacity of the structured event log (JSONL). 0 disables it: the
    /// dispatch hot path then does no event work and no allocation.
    std::size_t event_log_capacity = 0;
    /// Port of the embedded telemetry endpoint on 127.0.0.1 (/metrics,
    /// /healthz, /readyz, /debug/events, /debug/trace, /debug/fleet); 0
    /// picks an ephemeral port, -1 mounts nothing. Every endpoint reads
    /// a snapshot under its subsystem's own lock.
    int telemetry_port = -1;
  };

  explicit ServeRuntime(const Options& options);
  /// Finishes every accepted job, then joins the dispatchers.
  ~ServeRuntime();

  ServeRuntime(const ServeRuntime&) = delete;
  ServeRuntime& operator=(const ServeRuntime&) = delete;

  /// Places the job on the least-loaded device and returns its future.
  /// Blocks while the fleet backlog is at capacity (backpressure);
  /// throws ServeError after shutdown().
  std::future<JobResult> submit(JobSpec spec);
  /// Non-blocking submit: nullopt when the backlog is full (the
  /// caller's cue to shed load) or the runtime is shut down.
  std::optional<std::future<JobResult>> try_submit(JobSpec spec);

  /// Starts dispatching when constructed with start_paused.
  void resume();
  /// Blocks until every accepted job completed (resumes if paused).
  void drain();
  /// Stops accepting new jobs, finishes the accepted ones, joins the
  /// dispatcher threads. Idempotent; the destructor calls it.
  void shutdown();

  int device_count() const { return static_cast<int>(devices_.size()); }
  /// Whether placement currently avoids the device (an injected fault
  /// fired and the cooldown has not elapsed).
  bool device_degraded(int device) const;
  /// Devices currently placement-eligible.
  int active_devices() const;
  /// Whether the slot is active (inactive and draining ones refuse work).
  bool device_active(int device) const;

  // -- elastic autoscaling ----------------------------------------------------
  /// Activates one inactive slot (warming up first with warmup_ms > 0)
  /// and returns its index. Throws ServeError on a fixed fleet, at
  /// max_devices, or after shutdown().
  int scale_up();
  /// Gracefully retires `device` (< 0: the least-backlogged active
  /// one): no new placements or steals, its queued jobs re-home with
  /// their backoff gates, its running job stops at the next frame
  /// boundary and re-enqueues with its progress, the allocator is
  /// swept; blocks until the slot retired and returns its index.
  /// Throws ServeError on a fixed fleet, when it would empty the fleet,
  /// on a non-active target, or when shutdown() interrupts the drain.
  int scale_down(int device = -1);
  /// Jobs accepted and not yet dispatched / completed (fleet-wide).
  std::size_t queued_jobs() const;
  std::size_t inflight_jobs() const;

  const FleetMetrics& metrics() const { return metrics_; }
  /// Fleet-wide bound on accepted-but-unfinished jobs (what the alert
  /// engine's saturation rule measures against).
  std::size_t queue_capacity() const { return options_.queue_capacity; }
  /// The device's caching-allocator counters.
  CachingDeviceAllocator::Stats allocator_stats(int device) const;
  /// A device's simulated clock as of its last job boundary.
  double device_sim_clock_us(int device) const;
  /// One device's Chrome trace of everything it ran so far (pid =
  /// device, no instant events).
  std::string device_trace_json(int device) const;

  /// Text report / JSON / Prometheus exports with fresh allocator stats.
  std::string report();
  std::string metrics_json();
  std::string metrics_prometheus();

  /// The structured event log, nullptr unless event_log_capacity > 0.
  const obs::EventLog* event_log() const { return event_log_.get(); }
  /// JSONL export of the event log ("" when disabled).
  std::string events_jsonl() const;
  /// Snapshots of the raw events (empty when the log is disabled) and
  /// of every device's recorded intervals (safe mid-run): the inputs of
  /// the merged trace and the critical-path analyzer.
  std::vector<obs::Event> events() const;
  std::vector<obs::DeviceTrace> device_traces() const;
  /// Fleet-wide merged Chrome trace: every device's spans (pid =
  /// device, tid = stream), instant events from the event log, and flow
  /// arrows linking failover hops across devices.
  std::string merged_trace_json() const;

  /// The embedded telemetry server, nullptr unless telemetry_port >= 0
  /// (exposed so the alert monitor can mount endpoints on it).
  obs::TelemetryServer* telemetry() const { return telemetry_.get(); }
  /// Alert-engine sink: records the transitions and the count of
  /// firing alerts (FleetMetrics::on_alerts).
  void on_alert_transitions(const std::vector<obs::AlertTransition>& transitions,
                            std::size_t active_count);

 private:
  struct Device {
    std::unique_ptr<gpu::VirtualGpu> gpu;
    std::unique_ptr<CachingDeviceAllocator> cache;  // after gpu: destroyed first
    std::unique_ptr<fault::FaultInjector> injector;  // referenced by gpu
    /// Raised under mutex_ (by a drain, or when the core reports a
    /// queued job that outranks the running one); polled lock-free by
    /// the frame loop's gate, which stops the job at a frame boundary.
    std::atomic<bool> drain_flag{false};
    std::atomic<bool> preempt_flag{false};
    std::thread dispatcher;
  };

  void dispatcher_loop(int index);
  /// Builds and starts the telemetry server (no-op with port < 0).
  void mount_telemetry();
  /// Runs one chunk of the job: up to the end, or until `gate` stops it
  /// at a frame boundary (state->next_frame < spec.frames afterwards).
  /// flush=false skips the trailing device synchronize so the next
  /// batch member may overlap it.
  JobResult run_job(Device& dev, int index, Pending& pending, bool flush,
                    const apps::FrameGate& gate);
  std::optional<std::future<JobResult>> submit_impl(JobSpec spec, bool blocking);
  void refresh_allocator_stats();
  /// Carries out a queue push the core decided: records the devices it
  /// healed on the way and raises the target's preempt flag.
  void apply_locked(const SchedCore::Placement& placement);
  /// A shed submission: the future resolves at once with ShedError.
  std::future<JobResult> shed_locked(JobSpec&& spec, ShedReason reason);
  /// Job left the runtime (completed or failed): publish the device's
  /// clock, release its backlog share and wake waiters.
  void finish_job(int index, double estimate_us);
  /// Runs `f` under mutex_ and returns its result.
  template <typename F>
  auto locked(F&& f) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return f();
  }
  /// Real microseconds since construction: the core's time axis (and
  /// the event log's).
  double now_us() const { return trace_clock_.now_us(); }

  Options options_;
  obs::TraceClock trace_clock_;
  std::unique_ptr<obs::EventLog> event_log_;
  FleetMetrics metrics_;  // after the log and clock it records into
  std::unique_ptr<AdmissionController> admission_;  // guarded by mutex_
  std::vector<std::unique_ptr<Device>> devices_;

  mutable std::mutex mutex_;
  SchedCore core_;  // guarded by mutex_
  std::condition_variable work_ready_;
  std::condition_variable space_available_;
  std::condition_variable idle_;
  std::condition_variable drain_done_;  ///< a draining device retired
  std::uint64_t next_job_id_ = 1;
  bool paused_ = false;
  bool stopping_ = false;
  double serve_start_us_ = -1;  ///< first submission; -1 until then
  /// Declared last so it is destroyed first: its handlers capture
  /// `this` and read the members above. shutdown() also stops it
  /// before joining the dispatchers.
  std::unique_ptr<obs::TelemetryServer> telemetry_;
};

}  // namespace saclo::serve
