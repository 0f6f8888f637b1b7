#pragma once

#include <cstdint>
#include <string>

namespace saclo::serve {

/// Priority class of a job. Lower enumerator = more urgent; dispatchers
/// never run a Normal job while a High job is ready on their queue
/// (policies other than Fifo).
enum class Priority : std::uint8_t {
  High = 0,
  Normal = 1,
  Low = 2,
};

const char* priority_name(Priority priority);
/// Parses "high" / "normal" / "low"; throws ServeError on anything else.
Priority parse_priority(const std::string& name);

/// Queue-draining order of the per-device dispatchers.
enum class SchedPolicy : std::uint8_t {
  /// Submission order — the pre-SLO behavior, and the default.
  Fifo,
  /// Strict class order (High before Normal before Low), submission
  /// order within a class.
  Priority,
  /// Class order, then earliest absolute deadline within a class;
  /// deadline-carrying jobs run before best-effort ones of the same
  /// class, submission order breaks the remaining ties.
  Edf,
};

const char* sched_policy_name(SchedPolicy policy);
/// Parses "fifo" / "priority" / "edf"; throws ServeError otherwise.
SchedPolicy parse_sched_policy(const std::string& name);

/// The ordering key a queued job exposes to the policy comparator.
/// `deadline_us` is an absolute timestamp on any monotonic axis (the
/// scheduling core's `now_us` axis); 0 means no deadline.
/// `seq` is the submission sequence (the job id), the total-order
/// tiebreak that makes every policy deterministic.
struct SchedKey {
  Priority priority = Priority::Normal;
  double deadline_us = 0;
  std::uint64_t seq = 0;
};

/// Whether `a` dispatches before `b` under `policy`. A strict weak
/// ordering (the seq tiebreak makes it total), so the dispatcher's
/// best-ready scan is deterministic for any queue content.
bool schedules_before(SchedPolicy policy, const SchedKey& a, const SchedKey& b);

}  // namespace saclo::serve
