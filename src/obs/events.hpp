#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace saclo::obs {

/// The structured event vocabulary of the serving runtime: one entry
/// per job-lifecycle or fleet-health transition, POD so recording never
/// allocates. `arg` is type-specific (see each enumerator). The runtime
/// records them through serve::FleetMetrics, whose recording call per
/// transition also moves the matching counters.
enum class EventType : std::uint8_t {
  JobAdmitted,     ///< job accepted by submit(); arg = frames
  JobPlaced,       ///< placement decided; device = target, arg = cost estimate (us)
  JobDispatched,   ///< job left the queue, runs now; device = executor
  FrameDone,       ///< one frame's operations issued; arg = frame index
  JobCompleted,    ///< future fulfilled; arg = frames
  DeviceFault,     ///< injected fault interrupted the job; arg = reclaimed blocks
  Failover,        ///< faulted job re-enqueued; device = from, arg = to
  RetryExhausted,  ///< future carries the failure; arg = attempts used
  DeviceDegraded,  ///< device marked unhealthy (job = 0: fleet-level)
  DeviceHealed,    ///< degraded cooldown elapsed (job = 0: fleet-level)
  BatchFormed,     ///< dispatcher coalesced queued jobs; job = batch id
                   ///< (first member's job id), arg = batch size
  JobShed,         ///< admission refused the job; arg = ShedReason
  JobPreempted,    ///< in-flight job displaced at a frame boundary;
                   ///< device = where it ran, arg = first frame not done
  JobStolen,       ///< idle dispatcher took a queued job; device =
                   ///< thief, arg = victim device
  DeadlineMiss,    ///< job completed past its SLO deadline; arg =
                   ///< overshoot in real microseconds
  ScaleUp,         ///< autoscaler activated a device; device = which,
                   ///< arg = active devices after the action
  ScaleDown,       ///< a scale-down victim retired (right after its
                   ///< drain_complete); device = which, arg = active
                   ///< devices after retirement
  DrainStarted,    ///< victim marked draining; arg = queued jobs re-homed
  DrainComplete,   ///< victim retired; arg = buffers reclaim_live() swept
                   ///< (0 = the drain leaked nothing)
  AlertRaised,     ///< alert engine raised an alert; arg = AlertKind
                   ///< (job = 0: the subject lives in the alert log)
  AlertCleared,    ///< active alert cleared after sustained health;
                   ///< arg = AlertKind
};

/// Stable wire name ("job_admitted", "device_fault", ...) used by the
/// JSONL export and the merged Chrome trace's instant events.
const char* event_type_name(EventType type);

/// One structured event. Fixed-size and trivially copyable: recording
/// is a struct copy into a preallocated slot, never an allocation.
struct Event {
  EventType type = EventType::JobAdmitted;
  std::uint8_t backend = 0;   ///< gpu::BackendKind of the fleet's devices
  std::uint64_t job = 0;      ///< trace id (0 = fleet-level event)
  std::int32_t device = -1;   ///< fleet device index (-1 = none yet)
  std::int32_t attempt = 0;   ///< failover hop of the owning job
  std::int64_t arg = 0;       ///< type-specific payload (see EventType)
  double t_real_us = 0;       ///< real time since runtime start (TraceClock)
  double t_sim_us = 0;        ///< device's simulated clock, where meaningful
};

/// Bounded, allocation-free, multi-producer event ring. Writers claim a
/// slot with one atomic fetch_add and publish it with a release store —
/// no lock on the dispatch hot path. The log keeps the *earliest*
/// `capacity` events of the run and counts everything past that in an
/// explicit drop counter (the perf-buffer discipline: a truncated
/// causal record plus an honest account of the truncation beats a
/// silently resampled one).
class EventLog {
 public:
  explicit EventLog(std::size_t capacity);

  /// Records the event; returns false (and bumps dropped()) when the
  /// ring is full. Safe to call from any number of threads.
  bool emit(const Event& event);

  std::size_t capacity() const { return capacity_; }
  /// Events successfully recorded so far (<= capacity).
  std::size_t recorded() const;
  /// Events rejected because the ring was full.
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Recorded events in emission order. Safe concurrently with writers:
  /// slots still being written are skipped.
  std::vector<Event> snapshot() const;

  /// JSONL export: one JSON object per event, in order, terminated by a
  /// `log_summary` line carrying recorded/dropped/capacity so a reader
  /// can tell a complete record from a truncated one.
  std::string jsonl() const;

 private:
  struct Slot {
    Event event;
    std::atomic<bool> ready{false};
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Renders one event as its JSONL line (no trailing newline). Exposed
/// for tests that lock the schema down.
std::string event_json(const Event& event);

}  // namespace saclo::obs
