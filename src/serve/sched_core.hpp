#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "serve/job.hpp"
#include "serve/policy.hpp"

namespace saclo::serve {

/// What the runtime attaches to a job (its promise, the progress a
/// preempted job carries); opaque to the core.
struct JobState;

/// One accepted job as the scheduler sees it. Every time is real
/// microseconds on the single axis the caller passes as `now_us`.
struct Pending {
  std::uint64_t id = 0;
  JobSpec spec;
  double estimate_us = 0;
  int attempts = 0;  ///< device faults survived so far (failover count)
  double submit_us = 0;
  /// Retry backoff gate: selection skips the entry until then.
  double ready_us = 0;
  /// submit_us + spec.deadline_ms, 0 when the job carries no SLO — what
  /// the edf comparator orders by.
  double deadline_abs_us = 0;
  std::shared_ptr<JobState> state;
};

/// Lifecycle of an elastic slot: only Active ones take placements;
/// Draining ones finish or re-home what they hold, then go Inactive.
enum class DevState { Active, Inactive, Draining };

/// The scheduling knobs of ServeRuntime::Options (which derives from
/// this): everything the core decides with.
struct SchedConfig {
  /// Queue-draining order (policy.hpp). Fifo, the default, takes the
  /// first ready entry in queue order; priority/edf the policy-best.
  SchedPolicy policy = SchedPolicy::Fifo;
  /// Non-Fifo only: a queued strictly-higher-priority job displaces the
  /// running one at its next frame boundary; the displaced job keeps
  /// its completed frames and re-enqueues, so results stay bit-exact
  /// and priority inversion is bounded by one frame.
  bool preemption = true;
  /// Let an idle dispatcher steal from the busiest peer — the safety
  /// net for wrong cost-model estimates. Off by default: it trades the
  /// placement determinism several tests and the batcher rely on.
  bool work_stealing = false;
  /// Most jobs a dispatcher coalesces into one fused frame loop. The
  /// members agree on batch_key() and run back to back with the
  /// inter-member stream barrier elided: bit-exact vs unbatched and
  /// makespan-neutral on the simulated timeline. 1 disables batching.
  int batch_max = 1;
  /// Failovers per job before its future carries the DeviceFault.
  int max_retries = 3;
  /// Backoff before a retry may dispatch: min(base * 2^(attempt-1),
  /// cap) real milliseconds.
  double retry_backoff_base_ms = 0.25;
  double retry_backoff_cap_ms = 4.0;
  /// Real time until a degraded device is placement-eligible again;
  /// negative keeps it degraded for good (deterministic tests).
  double degraded_cooldown_ms = 20.0;
  /// Real time after scale_up() during which placement treats the
  /// device like a degraded one, so a cold device with an empty backlog
  /// does not absorb the whole queue while its drivers compile. 0
  /// disables.
  double warmup_ms = 0.0;
};

/// Every scheduling decision of the serving runtime as a pure state
/// machine: placement, policy order, batching, preemption, stealing,
/// retry gating, healing and draining. It owns no thread, lock or
/// clock — time arrives as `now_us`, device clocks as published values
/// — so one thread can drive it step by step and a schedule replays
/// from its inputs. Methods return what they decided; the caller turns
/// that into metrics, events and wake-ups. Every queue push goes
/// through enqueue(): submission, failover, preemption and drain
/// requeues, drain re-homes and steals differ only in where the job
/// leaves from.
class SchedCore {
 public:
  static constexpr int kIdleClass = 1 << 20;  ///< running class of a parked device
  static constexpr int kPlace = -1;           ///< enqueue target: least-backlog placement

  struct Slot {
    std::deque<Pending> queue;
    double backlog_us = 0;  ///< estimates of the queued and running jobs
    DevState state = DevState::Active;
    bool degraded = false;
    double degraded_since_us = 0;
    bool warming = false;  ///< fresh from scale_up, placement-deprioritized
    double warm_since_us = 0;
    /// Priority class of the running job; kIdleClass when parked.
    int running_class = kIdleClass;
    /// The device's simulated clock as of its last job boundary.
    double clock_us = 0;
  };

  struct Placement {
    int target = -1;
    /// The job outranks the class the target is running: raise its
    /// frame-boundary preempt request.
    bool preempt = false;
    std::vector<int> healed;  ///< devices whose cooldown elapsed on the way
  };

  struct Selection {
    std::vector<Pending> batch;  ///< the leader alone; empty when nothing is ready
    std::optional<double> wake_us;  ///< else the earliest backoff gate, if any
  };

  struct Stolen {  ///< a job a steal moved, and the device it came from
    std::uint64_t id;
    int attempts;
    int victim;
  };

  struct Fault {
    bool newly_degraded = false;
    /// Where the retry went; nullopt when the budget is spent (the job
    /// then stays with the caller, to fail).
    std::optional<Placement> retry;
  };

  /// `slots` devices, of which the first `active` start Active.
  SchedCore(const SchedConfig& config, int slots, int active);

  const Slot& slot(int device) const { return slots_.at(static_cast<std::size_t>(device)); }
  int slot_count() const { return static_cast<int>(slots_.size()); }
  std::size_t queued() const { return queued_; }
  std::size_t inflight() const { return inflight_; }
  int active_count(bool healthy_only = false) const;  ///< healthy: not degraded

  /// The one queue push: `target` >= 0 forces the device (a steal),
  /// kPlace picks the least-backlog active device — healthy and warm
  /// first, then impaired, and `exclude` only when it is all there is.
  Placement enqueue(int target, Pending&& job, double now_us, int exclude = -1);

  /// A new job enters: stamps its times and counts it queued and inflight.
  Placement submit(Pending&& job, double now_us);
  /// The policy-best ready entry of `device`, taken off its queue and
  /// recorded as the running class.
  Selection select(int device, double now_us);
  /// Moves ready entries sharing the leader's batch key behind it, up
  /// to batch_max members. They stay counted as queued until started.
  void extend_batch(int device, std::vector<Pending>& batch, double now_us);
  /// A coalesced follower starts running.
  void start_member() { --queued_; }
  /// A job running on `device` goes back in line, progress and all:
  /// stopped at a frame boundary (preempted or drained, ready at once)
  /// or failed over (behind a backoff, away from `exclude`).
  Placement requeue(int device, Pending&& job, double now_us, double ready_us,
                    int exclude = -1);
  /// A device fault interrupted `job`: degrade the device, and within
  /// the retry budget fail the job over behind a capped exponential
  /// backoff onto another device.
  Fault fault(int device, Pending& job, double now_us);
  /// The job left the runtime (completed or failed).
  void finish(int device, double estimate_us);
  /// An idle `thief` takes the policy-worst half (at least one) of the
  /// busiest peer queue — never the entry that peer would select next,
  /// unless it is the only one queued there.
  std::vector<Stolen> steal(int thief, double now_us);

  /// Activates one inactive slot (warming when warmup_ms > 0); -1 when
  /// every slot is taken.
  int activate(double now_us);
  /// The slot scale_down(device) retires: `device` itself, or the
  /// least-backlogged active slot for device < 0. Throws ServeError.
  int drain_victim(int device) const;
  /// Marks `device` draining and re-homes its queue, backoff gates intact.
  std::vector<Placement> drain(int device, double now_us);
  /// A drained slot goes back to Inactive.
  void retire(int device);

  void publish_clock(int device, double clock_us) { at(device).clock_us = clock_us; }

 private:
  Slot& at(int device) { return slots_.at(static_cast<std::size_t>(device)); }
  std::vector<int> heal(double now_us);
  int least_backlog(bool allow_impaired, int exclude) const;
  int pick(int exclude) const;
  Pending take(Slot& from, std::deque<Pending>::iterator it);
  bool before(const Pending& a, const Pending& b) const;
  /// Index of the entry selection would take: under Fifo the first
  /// ready one in queue order, else the policy-best ready one;
  /// queue.size() when nothing is ready.
  std::size_t best_ready(const Slot& slot, double now_us) const;

  SchedConfig config_;
  std::vector<Slot> slots_;
  std::size_t queued_ = 0;
  std::size_t inflight_ = 0;
};

}  // namespace saclo::serve
