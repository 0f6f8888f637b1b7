#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/alerts.hpp"
#include "obs/events.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "serve/admission.hpp"
#include "serve/allocator.hpp"
#include "serve/job.hpp"

namespace saclo::serve {

/// Thread-safe registry of fleet-wide serving metrics: per-device
/// utilization and queue depth, job latency percentiles, and
/// throughput. The scheduler records into it; reporters snapshot it
/// concurrently and render the text report, the JSON export or the
/// Prometheus exposition.
///
/// Each job-lifecycle or fleet-health transition is one recording
/// call: it moves the counters and, with an event log attached, appends
/// the transition's wire event (obs::EventType documents each payload).
/// The live counters and the event record therefore cannot drift apart.
class FleetMetrics {
 public:
  explicit FleetMetrics(int devices);

  /// Attaches the structured event log. From then on every recording
  /// call also appends its event(s), stamped with `backend` and with
  /// real time on `clock`, and snapshots read the log's drop count.
  /// Call it before recording starts; both must outlive the registry.
  void attach_event_log(obs::EventLog* log, const obs::TraceClock* clock, std::uint8_t backend);

  // -- recording: one call per transition -------------------------------------
  // `job` is the trace id, `attempt` the job's failover hop and
  // `t_sim_us` the device's simulated clock at the transition.

  /// Job accepted and placed on `device`, billed to `tenant`
  /// (job_admitted, job_placed).
  void on_submit(std::uint64_t job, int device, const std::string& tenant, int frames,
                 double estimate_us);
  /// Admission shed a submission before it entered any queue (job_shed).
  /// Counts as a submission (the honest accounting identity is
  /// completed + failed + shed == submitted) and as a shed, globally
  /// and per tenant.
  void on_shed(std::uint64_t job, const std::string& tenant, ShedReason reason);
  /// Job left the queue and runs now (job_dispatched).
  void on_dispatch(std::uint64_t job, int device, int attempt, double t_sim_us);
  /// One frame's operations issued (frame_done). Moves no counter and
  /// takes no lock.
  void on_frame_done(std::uint64_t job, int device, int attempt, int frame, double t_sim_us) const;
  /// `sim_clock_us` is the device's cumulative simulated clock after
  /// the job — the fleet makespan is the max over devices
  /// (deadline_miss when it overran its SLO, then job_completed).
  void on_complete(int device, const JobResult& result, double sim_clock_us);
  /// The job's future carries its failure (retry_exhausted).
  void on_failed(std::uint64_t job, int device, int attempt, double t_sim_us);
  /// An injected DeviceFault interrupted the job on `device`;
  /// `reclaimed_blocks` is what the allocator sweep took back
  /// (device_fault).
  void on_device_fault(std::uint64_t job, int device, int attempt,
                       std::int64_t reclaimed_blocks, double t_sim_us);
  /// A faulted job was re-enqueued from device `from` onto `to`, to run
  /// as `attempt` (failover). Counts a retry always and a failover when
  /// the devices differ, and moves the queue-depth bookkeeping to the
  /// new device.
  void on_failover(std::uint64_t job, int from, int to, int attempt, double t_sim_us);
  /// Device entered / left the degraded state (device_degraded,
  /// device_healed); degraded wall time accrues between the two.
  void on_degraded(std::uint64_t job, int device, int attempt, double t_sim_us);
  void on_healed(int device, double t_sim_us);
  /// The dispatcher coalesced `size` same-key jobs led by `leader` into
  /// one fused frame loop on `device` (batch_formed; only called with
  /// size >= 2 — a batch of one is just a dispatch).
  void on_batch(std::uint64_t leader, int device, int size, double t_sim_us);
  /// An in-flight job was displaced at a frame boundary on `from`, with
  /// `next_frame` the first frame not done, and re-enqueued on `to`
  /// (job_preempted; `to` may equal `from`). Moves the queue-depth
  /// bookkeeping like on_failover.
  void on_preempted(std::uint64_t job, int from, int to, int attempt, int next_frame,
                    double t_sim_us);
  /// Idle dispatcher `to` stole a queued job from `from`'s queue
  /// (job_stolen).
  void on_steal(std::uint64_t job, int from, int to, int attempt, double t_sim_us);
  // -- elastic autoscaling ----------------------------------------------------
  /// Marks a device placement-eligible or retired; active wall time
  /// accrues between the transitions (the device-seconds the autoscale
  /// bench compares against a static fleet). Devices start active; the
  /// elastic runtime deactivates its spare slots at construction.
  void set_active(int device, bool active);
  /// scale_up() activated `device`; `active` devices now (scale_up).
  void on_scale_up(int device, int active, double t_sim_us);
  /// scale_down() started draining `device`, re-homing `rehomed` queued
  /// jobs onto the surviving devices (drain_started).
  void on_drain_started(int device, int rehomed, double t_sim_us);
  /// The draining device finished its last job, its sweep reclaimed
  /// `reclaimed` blocks, and it retired, leaving `active` devices
  /// (drain_complete, scale_down).
  void on_drain_complete(int device, std::int64_t reclaimed, int active, double t_sim_us);
  /// One job moved from draining `from` to `to` (queue-depth
  /// bookkeeping like on_steal, without counting a steal; no event of
  /// its own — drain_started carries the count). `queued` is false for
  /// the drain-gated running job, which had already left `from`'s
  /// queue-depth gauge at dispatch.
  void on_rehomed(int from, int to, bool queued = true);
  // -- live observability -----------------------------------------------------
  /// The alert engine raised or cleared alerts (alert_raised /
  /// alert_cleared each); `active` alerts fire now.
  void on_alerts(const std::vector<obs::AlertTransition>& transitions, std::size_t active);
  /// Real (wall-clock) microseconds since the runtime started serving;
  /// updated by the scheduler so snapshots can compute real throughput.
  void set_elapsed_real_us(double us);
  /// Attach one device's allocator stats to the next snapshot.
  void set_allocator_stats(int device, const CachingDeviceAllocator::Stats& stats);
  /// Identity labels for the build-info gauge (the build's git
  /// SHA and the compiled backend options). Set once by the runtime.
  void set_build_info(std::string sha, std::string backend_opts);

  // -- reading ---------------------------------------------------------------
  struct DeviceSnapshot {
    int device = 0;
    std::int64_t jobs = 0;
    std::int64_t jobs_failed = 0;  ///< jobs whose future carries an exception
    std::int64_t faults = 0;       ///< injected DeviceFaults observed here
    std::int64_t frames = 0;
    bool degraded = false;    ///< currently marked unhealthy by the scheduler
    double degraded_us = 0;   ///< cumulative real time spent degraded
    bool active = true;       ///< placement-eligible (elastic fleets retire slots)
    double active_us = 0;     ///< cumulative real time spent active
    int queue_depth = 0;      ///< queued, not yet dispatched
    int max_queue_depth = 0;  ///< high-water mark
    int running = 0;          ///< 0 or 1 (one dispatcher per device)
    double busy_sim_us = 0;   ///< sum of per-job simulated wall times
    double sim_clock_us = 0;  ///< device's cumulative simulated clock
    /// Share of the fleet's simulated makespan this device was busy:
    /// busy_sim / max over devices of sim_clock. 1.0 = perfectly
    /// load-balanced fleet.
    double utilization = 0;
    bool has_allocator = false;
    CachingDeviceAllocator::Stats allocator;
  };

  struct Snapshot {
    // The fleet counters and gauges. The table in metrics.cpp declares
    // each one's JSON key, Prometheus family and report label once.
    std::int64_t jobs_submitted = 0;
    std::int64_t jobs_completed = 0;
    std::int64_t jobs_failed = 0;
    std::int64_t frames_completed = 0;
    // Fleet health: the failover machinery's counters.
    std::int64_t device_faults = 0;      ///< injected faults across the fleet
    std::int64_t failovers = 0;          ///< retries that moved device
    std::int64_t retries = 0;            ///< faulted jobs re-enqueued (any device)
    std::int64_t buffers_reclaimed = 0;  ///< allocator blocks swept after faults
    std::int64_t degraded_devices = 0;   ///< currently degraded
    // Dynamic batching: coalesced dispatches and how many jobs rode in
    // them (jobs dispatched alone count in neither).
    std::int64_t batches_formed = 0;
    std::int64_t jobs_batched = 0;
    std::int64_t max_batch_size = 0;
    // Multi-tenant SLO scheduling.
    std::int64_t jobs_shed = 0;        ///< submissions refused by admission
    std::int64_t preemptions = 0;      ///< frame-boundary displacements
    std::int64_t steals = 0;           ///< queued jobs moved to an idle dispatcher
    std::int64_t deadline_misses = 0;  ///< completions past their SLO deadline
    // Elastic autoscaling.
    std::int64_t scale_ups = 0;       ///< devices activated by scale_up()
    std::int64_t scale_downs = 0;     ///< graceful drains started
    std::int64_t jobs_rehomed = 0;    ///< queued jobs moved off draining devices
    std::int64_t active_devices = 0;  ///< currently placement-eligible
    /// Sum over devices of real seconds spent active — the cost axis an
    /// autoscaled fleet saves against a static-max one.
    double device_seconds = 0;
    /// Cap-evicted allocator blocks summed across devices (see
    /// CachingDeviceAllocator::Stats::cap_evictions).
    std::int64_t alloc_cap_evictions = 0;
    // Live observability plane.
    std::string build_sha;           ///< the build-info gauge's sha label
    std::string build_backend_opts;  ///< ... and its backend_opts label
    std::int64_t events_dropped = 0;  ///< event-ring rejections
    std::int64_t active_alerts = 0;   ///< alerts currently firing
    double elapsed_real_us = 0;
    double sim_makespan_us = 0;  ///< max over devices of sim_clock_us
    /// Aggregate throughput in frames per second of simulated device
    /// time — the number the device-count sweep scales.
    double throughput_fps_sim = 0;
    /// Frames per second of real wall-clock (functional execution +
    /// scheduling overhead on this host).
    double throughput_fps_real = 0;
    // Real end-to-end job latency (submit -> completion), microseconds.
    // Percentiles come from the bounded log-bucketed histogram, so they
    // sit within one bucket width (~19%) of the exact sample
    // percentile; mean and max are exact.
    double latency_p50_us = 0;
    double latency_p95_us = 0;
    double latency_p99_us = 0;
    double latency_mean_us = 0;
    double latency_max_us = 0;
    // Simulated per-job device time.
    double sim_job_p50_us = 0;
    double sim_job_p99_us = 0;
    /// The full distributions backing the percentiles above, for the
    /// Prometheus exposition and offline analysis.
    obs::LogHistogram latency_hist;
    obs::LogHistogram sim_job_hist;
    obs::LogHistogram batch_size_hist;  ///< sizes of coalesced batches (>= 2)
    /// Real end-to-end latency split by priority class (index =
    /// static_cast<int>(Priority)) — how a policy's protection of the
    /// high class shows up in the exposition.
    std::array<obs::LogHistogram, 3> class_latency_hist;
    /// Per-tenant accounting, sorted by tenant id.
    struct TenantSnapshot {
      std::string tenant;
      std::int64_t submitted = 0;  ///< accepted + shed
      std::int64_t completed = 0;
      std::int64_t shed = 0;
      std::int64_t slo_jobs = 0;  ///< completed jobs that carried a deadline
      std::int64_t slo_met = 0;   ///< of those, completed within it
      /// slo_met / slo_jobs; 1.0 when the tenant never set a deadline.
      double slo_attainment() const {
        return slo_jobs > 0 ? static_cast<double>(slo_met) / static_cast<double>(slo_jobs) : 1.0;
      }
    };
    std::vector<TenantSnapshot> tenants;
    std::vector<DeviceSnapshot> devices;
  };
  Snapshot snapshot() const;

  /// Metrics glossary rendered as a fixed-width text report.
  std::string report() const;
  /// Machine-readable export: what `saclo-serve --json` prints and the
  /// telemetry endpoint's /debug/fleet serves.
  std::string json() const;
  /// Prometheus text exposition (counters, gauges and the latency
  /// histograms) — what `saclo-serve --metrics-out` writes.
  std::string prometheus() const;

 private:
  /// One device's live state: its snapshot row, with degraded_us and
  /// active_us holding the closed intervals only (snapshot() adds the
  /// open one).
  struct DeviceState : DeviceSnapshot {
    std::chrono::steady_clock::time_point degraded_since{};
    std::chrono::steady_clock::time_point active_since{};
  };
  DeviceState& device(int index) { return devices_.at(static_cast<std::size_t>(index)); }
  void set_active_locked(DeviceState& d, bool active);
  /// Appends one event when a log is attached.
  void log(obs::EventType type, std::uint64_t job, int device, int attempt, std::int64_t arg,
           double t_sim_us) const;

  mutable std::mutex mutex_;
  /// The counters and histograms, recorded in place; snapshot() copies
  /// them and derives the gauges, percentiles, tenants and devices.
  Snapshot live_;
  std::vector<DeviceState> devices_;
  std::map<std::string, Snapshot::TenantSnapshot> tenants_;  // tenant field unset
  obs::EventLog* events_ = nullptr;
  const obs::TraceClock* clock_ = nullptr;
  std::uint8_t backend_ = 0;
};

/// Interpolated percentile of an unsorted sample (q in [0, 1]); 0 on an
/// empty sample. Exposed for the metrics tests.
double percentile(std::vector<double> values, double q);

/// Escapes a string for use inside a Prometheus label value per the
/// text exposition format: backslash, double quote and newline become
/// \\, \" and \n. Tenant ids arrive from the CLI, so they can contain
/// anything.
std::string prom_escape_label_value(const std::string& value);

}  // namespace saclo::serve
