#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
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
#include "serve/policy.hpp"

namespace saclo::serve {

/// The multi-GPU serving runtime: accepts concurrent downscale jobs
/// through a bounded, backpressured submission queue and schedules them
/// across a fleet of simulated devices.
///
/// Architecture (the host-side orchestration layer every real
/// inference/transcoding stack puts above its devices):
///
///   submit()/try_submit()  -- any thread, blocks when the fleet-wide
///        |                    backlog reaches queue_capacity
///        v  least-loaded placement (cost-model estimate per route)
///   per-device FIFO  -->  dispatcher thread (one per device)
///        |                    owns a VirtualGpu + caching allocator +
///        |                    per-(route, geometry) compiled drivers
///        v
///   std::future<JobResult>   per-job results, timing and device id
///
/// Each job replays the existing pipelines (PR 1's double-buffered
/// multi-stream frame loops) on its device, so fleet results are
/// bit-exact against single-device runs. Devices are only ever touched
/// by their own dispatcher thread; cross-thread state (queues, metrics,
/// allocator stats) is mutex-guarded.
///
/// Fault tolerance: with a fault_plan installed, a device may throw
/// fault::DeviceFault mid-job. The dispatcher then sweeps leaked
/// buffers back into the caching allocator, marks its device degraded
/// (placement avoids it until the cooldown elapses), and re-enqueues
/// the job on the least-loaded healthy device behind a capped
/// exponential backoff — up to max_retries times, after which the
/// job's future carries the DeviceFault. A failed attempt executed
/// nothing externally visible, so the retried job's results stay
/// bit-exact against a fault-free run.
class ServeRuntime {
 public:
  struct Options {
    int devices = 2;
    /// Fleet-wide bound on accepted-but-unfinished jobs; submit()
    /// blocks (and try_submit() fails) once the backlog reaches it.
    std::size_t queue_capacity = 32;
    gpu::DeviceSpec device = gpu::gtx480();
    gpu::HostSpec host = gpu::i7_930();
    unsigned workers_per_device = 1;  ///< thread-pool width for functional kernels
    /// Execution backend every fleet device delegates to (see
    /// gpu/backend.hpp). Results are bit-exact across backends; only
    /// how op durations are produced differs.
    gpu::BackendKind backend = gpu::BackendKind::Sim;
    bool async_streams = true;        ///< per-job double-buffered stream overlap
    /// Accept jobs but don't dispatch until resume() — deterministic
    /// placement and queue-depth tests.
    bool start_paused = false;

    // -- dynamic batching -----------------------------------------------------
    /// Maximum jobs a dispatcher coalesces into one fused frame loop.
    /// Members must agree on batch_key() (route, geometry, opt level,
    /// channels); they run back to back on the device in one dispatch
    /// round with the inter-member stream barrier elided — one driver
    /// lookup and one queue sweep serve the whole batch, amortizing the
    /// per-job host-side dispatch overhead. Bit-exact vs unbatched, and
    /// makespan-neutral on the simulated timeline (the hazard-driven
    /// stream model is already work-conserving across jobs — a parity
    /// the serve bench gates on). 1 (the default) disables batching.
    int batch_max = 1;
    /// How long a dispatcher holds an underfull batch open waiting for
    /// more same-key arrivals (real milliseconds). 0 coalesces only
    /// what is already queued — no added latency.
    double batch_wait_ms = 0.0;

    // -- multi-tenant SLO scheduling ------------------------------------------
    /// Queue-draining order of the dispatchers (see policy.hpp). Fifo,
    /// the default, is exactly the pre-SLO behavior; priority/edf scan
    /// the whole queue for the best ready job.
    SchedPolicy policy = SchedPolicy::Fifo;
    /// With a non-Fifo policy: let a queued strictly-higher-priority
    /// job displace the running one at the next frame boundary. The
    /// displaced job keeps its completed frames and re-enqueues
    /// least-loaded (the failover re-enqueue path), so results stay
    /// bit-exact and priority inversion is bounded by one frame.
    bool preemption = true;
    /// Let an idle dispatcher pull the policy-worst tail of the busiest
    /// peer queue — the safety net for cost-model estimates that turn
    /// out wrong. Off by default: stealing trades the placement
    /// determinism several tests (and the batching heuristics) rely on.
    bool work_stealing = false;
    /// Per-tenant token-bucket admission: sustained jobs per second per
    /// tenant (burst below). 0 (the default) disables rate limiting.
    /// Over-limit submissions are shed: their future resolves
    /// immediately with a typed ShedError — it never hangs.
    double tenant_rate_limit = 0.0;
    /// Bucket depth of the per-tenant limiter (>= 1 when limiting).
    double tenant_rate_burst = 4.0;
    /// Shed (typed ShedError, jobs_shed metric) instead of blocking
    /// when the fleet backlog is at queue_capacity — overload sheds
    /// honestly instead of stalling the caller.
    bool shed_on_full = false;

    // -- elastic autoscaling --------------------------------------------------
    /// Upper bound of an elastic fleet. 0 (the default) keeps the
    /// historical fixed fleet — scale_up()/scale_down() throw. A value
    /// >= `devices` pre-builds `max_devices` device slots at
    /// construction: the first `devices` start active, the rest sit
    /// inactive (their dispatchers parked, their simulators idle) until
    /// scale_up() activates them. Slots are pre-built so scaling never
    /// races construction — activation is a state flip, not a device
    /// bring-up.
    int max_devices = 0;
    /// Real-time warm-up window after scale_up() during which placement
    /// treats the fresh device like a degraded one: it only receives
    /// jobs when every other active device is also degraded or warming.
    /// A cold device has an empty backlog estimate and would otherwise
    /// instantly absorb the whole queue while its drivers compile —
    /// the p99 spike autoscaling exists to avoid. Cleared lazily by the
    /// same sweep that heals degraded devices. 0 disables.
    double warmup_ms = 0.0;
    /// Per-size-class cap on each device allocator's parked bytes (see
    /// CachingDeviceAllocator): bounds what mixed-geometry traffic can
    /// pin. 0 = uncapped, the historical behavior.
    std::int64_t alloc_class_cap_bytes = 0;

    // -- fault tolerance ------------------------------------------------------
    /// Fault-injection schedule installed on the fleet's devices at
    /// construction (empty = no injection, zero overhead).
    fault::FaultPlan fault_plan;
    /// Per-job failover budget: how many times a DeviceFault-interrupted
    /// job is re-enqueued before its future carries the fault instead.
    int max_retries = 3;
    /// Capped exponential backoff before a retried job may dispatch
    /// again: min(base * 2^(attempt-1), cap) real milliseconds.
    double retry_backoff_base_ms = 0.25;
    double retry_backoff_cap_ms = 4.0;
    /// Real-time cooldown after which a degraded device becomes
    /// eligible for placement again; negative keeps it degraded for the
    /// runtime's lifetime (deterministic tests).
    double degraded_cooldown_ms = 20.0;

    // -- observability --------------------------------------------------------
    /// Capacity of the structured event log (job_admitted, frame_done,
    /// fault, failover, ... as JSONL). 0 disables it entirely: the
    /// dispatch hot path then performs no event work and no allocation.
    std::size_t event_log_capacity = 0;
    /// TCP port of the embedded telemetry endpoint (binds 127.0.0.1):
    /// /metrics, /healthz, /readyz, /debug/events, /debug/trace,
    /// /debug/fleet. 0 asks the kernel for an ephemeral port (read it
    /// back via telemetry()->port()). -1, the default, mounts nothing —
    /// no socket, no thread. Every endpoint reads a snapshot taken
    /// under the owning subsystem's own lock, so a live scrape never
    /// touches the dispatch hot path.
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
  /// Whether the scheduler currently considers the device unhealthy
  /// (an injected fault fired and the cooldown has not elapsed).
  bool device_degraded(int device) const;
  /// Devices currently placement-eligible (== device_count() on a
  /// fixed fleet).
  int active_devices() const;
  /// Whether the slot is active (inactive and draining slots refuse new
  /// placements).
  bool device_active(int device) const;

  // -- elastic autoscaling ----------------------------------------------------
  /// Activates one inactive slot (with warmup_ms > 0 it joins placement
  /// gradually — see Options::warmup_ms) and returns its index. Throws
  /// ServeError on a fixed fleet, at max_devices, or after shutdown().
  int scale_up();
  /// Gracefully retires `device` (< 0 picks the least-backlogged active
  /// device): marks it draining — no new placements, no steals — moves
  /// its queued jobs (in-backoff retries included, gates intact) onto
  /// the survivors, stops its running job at the next frame boundary
  /// (the preemption re-enqueue path, so progress is kept and results
  /// stay bit-exact), sweeps the allocator, then blocks until the slot
  /// retired. Returns the retired index. Throws ServeError on a fixed
  /// fleet, when it would empty the fleet, on a non-active target, or
  /// when shutdown() interrupts the drain.
  int scale_down(int device = -1);
  /// Jobs accepted and not yet dispatched (fleet-wide).
  std::size_t queued_jobs() const;
  /// Jobs accepted and not yet completed (fleet-wide).
  std::size_t inflight_jobs() const;

  const FleetMetrics& metrics() const { return metrics_; }
  /// Fleet-wide bound on accepted-but-unfinished jobs (the backlog the
  /// alert engine's saturation rule measures against).
  std::size_t queue_capacity() const { return options_.queue_capacity; }
  /// The device's caching-allocator counters.
  CachingDeviceAllocator::Stats allocator_stats(int device) const;
  /// Cumulative simulated clock of one device.
  double device_sim_clock_us(int device) const;
  /// One device's Chrome trace of everything it ran so far: the merged
  /// trace of that device alone (pid = device, no instant events).
  std::string device_trace_json(int device) const;

  /// Text report / JSON export with fresh allocator stats folded in.
  std::string report();
  std::string metrics_json();
  /// Prometheus text exposition with fresh allocator stats folded in.
  std::string metrics_prometheus();

  /// The structured event log, nullptr unless event_log_capacity > 0.
  const obs::EventLog* event_log() const { return event_log_.get(); }
  /// JSONL export of the event log ("" when disabled).
  std::string events_jsonl() const;
  /// Snapshot of the raw events (empty when the log is disabled) — the
  /// critical-path analyzer's second input besides device_traces().
  std::vector<obs::Event> events() const;
  /// Snapshot of every device's recorded intervals (safe while
  /// dispatchers are still recording) — the input the merged trace and
  /// the critical-path analyzer share.
  std::vector<obs::DeviceTrace> device_traces() const;
  /// Fleet-wide merged Chrome trace: every device's spans in one file
  /// (pid = device, tid = stream), instant events from the event log,
  /// and flow arrows linking failover hops across devices.
  std::string merged_trace_json() const;

  /// The embedded telemetry server, nullptr unless
  /// Options::telemetry_port >= 0. Exposed so late-constructed
  /// subsystems (the alert monitor) can mount endpoints on it.
  obs::TelemetryServer* telemetry() const { return telemetry_.get(); }
  /// Alert-engine sink: records one alert_raised/alert_cleared wire
  /// event per transition and refreshes the saclo_alerts_active gauge.
  void on_alert_transitions(const std::vector<obs::AlertTransition>& transitions,
                            std::size_t active_count);

 private:
  struct Pending {
    std::uint64_t id = 0;
    JobSpec spec;
    std::promise<JobResult> promise;
    double estimate_us = 0;
    int attempts = 0;  ///< device faults survived so far (failover count)
    std::chrono::steady_clock::time_point submit_time;
    /// Retry backoff gate: the dispatcher skips the entry until then.
    std::chrono::steady_clock::time_point ready_time;
    /// Absolute deadline on the steady_clock axis in microseconds
    /// (submit + spec.deadline_ms), 0 when the job carries no SLO —
    /// what the edf comparator orders by.
    double deadline_abs_us = 0;
    // Preemption bookkeeping: a displaced job carries its progress with
    // it, so a resumed chunk never recomputes completed frames.
    int next_frame = 0;    ///< first frame the next dispatch issues
    int preemptions = 0;   ///< frame-boundary displacements so far
    apps::OpBreakdown ops_done;   ///< accumulated over completed chunks
    double sim_wall_done_us = 0;  ///< accumulated simulated wall time
    double exec_done_us = 0;      ///< accumulated dispatcher-thread time
    IntArray partial_output;      ///< latest executed frame across chunks
  };

  /// Lifecycle of an elastic slot. Active is the only state placement
  /// considers; Draining refuses new work while the dispatcher finishes
  /// or re-homes what it has, then retires to Inactive.
  enum class DevState { Active, Inactive, Draining };

  struct Device {
    std::unique_ptr<gpu::VirtualGpu> gpu;
    std::unique_ptr<CachingDeviceAllocator> cache;  // after gpu: destroyed first
    std::unique_ptr<fault::FaultInjector> injector;  // referenced by gpu
    std::deque<Pending> queue;       // guarded by mutex_
    double backlog_estimate_us = 0;  // queued + running, guarded by mutex_
    bool degraded = false;           // guarded by mutex_
    std::chrono::steady_clock::time_point degraded_since;  // guarded by mutex_
    DevState state = DevState::Active;  // guarded by mutex_
    /// Raised (under mutex_) when the device starts draining; polled
    /// lock-free by the frame loop's gate so the running job stops at
    /// the next frame boundary.
    std::atomic<bool> drain_flag{false};
    bool warming = false;  // guarded by mutex_ (see Options::warmup_ms)
    std::chrono::steady_clock::time_point warm_since;  // guarded by mutex_
    /// Priority class of the job the dispatcher is running (kIdleClass
    /// when parked). Written under mutex_ at selection; read by
    /// submitters (under mutex_) to decide whether an arrival should
    /// raise the preempt flag.
    std::atomic<int> running_class{kIdleClass};
    /// Raised (under mutex_) when a strictly-higher-priority job waits
    /// on this device; polled lock-free by the frame loop's gate.
    std::atomic<bool> preempt_flag{false};
    std::thread dispatcher;
  };
  static constexpr int kIdleClass = 1 << 20;

  void dispatcher_loop(int index);
  /// Builds and starts the telemetry server (constructor tail; no-op
  /// with telemetry_port < 0).
  void mount_telemetry();
  /// flush=false skips the member's trailing device synchronize so the
  /// next batch member may overlap it (always true for the last member
  /// of a batch and for unbatched jobs). `gate` is the frame-boundary
  /// preemption check handed to the frame loop (empty = ungated). The
  /// result covers the whole job (all chunks) when it ran to
  /// completion; pending.next_frame < spec.frames afterwards means the
  /// gate stopped the chunk and the job must re-enqueue.
  JobResult run_job(Device& dev, int index, Pending& pending, bool flush,
                    const apps::FrameGate& gate);
  std::optional<std::future<JobResult>> submit_impl(JobSpec spec, bool blocking);
  void refresh_allocator_stats();
  /// The policy comparator's view of a queued job.
  SchedKey sched_key(const Pending& pending) const;
  /// Raise `device`'s preempt flag when `priority` outranks the class
  /// it is running (no-op for Fifo or preemption off).
  void signal_preempt_locked(std::size_t device, Priority priority);
  /// Move the policy-worst ready tail of the fullest peer queue onto
  /// `thief`'s queue; false when nothing was stealable.
  bool steal_into_locked(int thief);
  /// A shed submission: resolve the future immediately with the typed
  /// ShedError and count it honestly.
  std::future<JobResult> shed_locked(JobSpec&& spec, ShedReason reason);
  /// Least-loaded healthy device (degraded cooldowns healed lazily
  /// first); falls back to degraded devices when nothing is healthy,
  /// and to `exclude` itself only when it is the whole fleet.
  std::size_t pick_device_locked(int exclude);
  void heal_elapsed_locked();
  int active_devices_locked() const;
  /// Job left the runtime (completed or failed): release its backlog
  /// share and wake waiters.
  void finish_job(Device& dev, double estimate_us);
  /// Records one structured event; a no-op returning immediately (no
  /// lock, no allocation) when the event log is disabled.
  void emit(obs::EventType type, std::uint64_t job, int device, int attempt, std::int64_t arg,
            double t_sim_us);

  Options options_;
  FleetMetrics metrics_;
  obs::TraceClock trace_clock_;
  std::unique_ptr<obs::EventLog> event_log_;
  std::unique_ptr<AdmissionController> admission_;  // guarded by mutex_
  std::vector<std::unique_ptr<Device>> devices_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable space_available_;
  std::condition_variable idle_;
  std::condition_variable drain_done_;  ///< a draining device retired
  std::size_t total_queued_ = 0;
  std::size_t total_inflight_ = 0;
  std::uint64_t next_job_id_ = 1;
  bool paused_ = false;
  bool stopping_ = false;
  bool started_serving_ = false;
  std::chrono::steady_clock::time_point serve_start_;
  /// Declared last so it is destroyed first: its handlers capture
  /// `this` and read the members above. shutdown() also stops it
  /// before joining the dispatchers.
  std::unique_ptr<obs::TelemetryServer> telemetry_;
};

}  // namespace saclo::serve
