#include "serve/sched_core.hpp"

#include <algorithm>

#include "core/fmt.hpp"

namespace saclo::serve {

SchedCore::SchedCore(const SchedConfig& config, int slots, int active)
    : config_(config), slots_(static_cast<std::size_t>(slots)) {
  for (int i = active; i < slots; ++i) at(i).state = DevState::Inactive;
}

int SchedCore::active_count(bool healthy_only) const {
  int n = 0;
  for (const Slot& s : slots_) n += s.state == DevState::Active && !(healthy_only && s.degraded);
  return n;
}

bool SchedCore::before(const Pending& a, const Pending& b) const {
  return schedules_before(config_.policy, {a.spec.priority, a.deadline_abs_us, a.id},
                          {b.spec.priority, b.deadline_abs_us, b.id});
}

std::size_t SchedCore::best_ready(const Slot& slot, double now_us) const {
  std::size_t best = slot.queue.size();
  for (std::size_t i = 0; i < slot.queue.size(); ++i) {
    if (slot.queue[i].ready_us > now_us) continue;
    if (config_.policy == SchedPolicy::Fifo) return i;
    if (best == slot.queue.size() || before(slot.queue[i], slot.queue[best])) best = i;
  }
  return best;
}

std::vector<int> SchedCore::heal(double now_us) {
  std::vector<int> healed;
  for (int i = 0; i < slot_count(); ++i) {
    Slot& s = at(i);
    if (config_.degraded_cooldown_ms >= 0 && s.degraded &&
        now_us - s.degraded_since_us >= config_.degraded_cooldown_ms * 1000.0) {
      s.degraded = false;
      healed.push_back(i);
    }
    // Warm-up rides the same lazy sweep as degraded cooldowns.
    if (s.warming && now_us - s.warm_since_us >= config_.warmup_ms * 1000.0) s.warming = false;
  }
  return healed;
}

int SchedCore::least_backlog(bool allow_impaired, int exclude) const {
  int best = -1;
  for (int i = 0; i < slot_count(); ++i) {
    const Slot& s = slot(i);
    // Inactive slots have no work loop; draining ones are on their way out.
    if (s.state != DevState::Active || i == exclude) continue;
    if (!allow_impaired && (s.degraded || s.warming)) continue;
    if (best < 0 || s.backlog_us < slot(best).backlog_us) best = i;
  }
  return best;
}

int SchedCore::pick(int exclude) const {
  // An impaired fleet still serves (a one-shot fault's device works
  // again, a broken one burns the retry budget); `exclude` only serves
  // when it is the whole fleet.
  for (bool allow_impaired : {false, true}) {
    if (const int best = least_backlog(allow_impaired, exclude); best >= 0) return best;
  }
  return least_backlog(/*allow_impaired=*/true, /*exclude=*/-1);
}

SchedCore::Placement SchedCore::enqueue(int target, Pending&& job, double now_us, int exclude) {
  Placement placement;
  if (target == kPlace) {
    placement.healed = heal(now_us);
    target = pick(exclude);
  }
  Slot& s = at(target);
  placement.target = target;
  placement.preempt = config_.preemption && config_.policy != SchedPolicy::Fifo &&
                      static_cast<int>(job.spec.priority) < s.running_class;
  s.backlog_us += job.estimate_us;
  s.queue.push_back(std::move(job));
  return placement;
}

Pending SchedCore::take(Slot& from, std::deque<Pending>::iterator it) {
  Pending job = std::move(*it);
  from.queue.erase(it);
  from.backlog_us -= job.estimate_us;
  return job;
}

SchedCore::Placement SchedCore::submit(Pending&& job, double now_us) {
  job.submit_us = job.ready_us = now_us;
  if (job.spec.deadline_ms > 0) job.deadline_abs_us = now_us + job.spec.deadline_ms * 1000.0;
  ++queued_;
  ++inflight_;
  return enqueue(kPlace, std::move(job), now_us);
}

SchedCore::Selection SchedCore::select(int device, double now_us) {
  Slot& s = at(device);
  Selection selection;
  const std::size_t ready = best_ready(s, now_us);
  if (ready == s.queue.size()) {
    s.running_class = kIdleClass;
    for (const Pending& p : s.queue) {
      if (!selection.wake_us || p.ready_us < *selection.wake_us) selection.wake_us = p.ready_us;
    }
    return selection;
  }
  // The running job's estimate stays in this device's backlog.
  const auto it = s.queue.begin() + static_cast<std::ptrdiff_t>(ready);
  selection.batch.push_back(std::move(*it));
  s.queue.erase(it);
  s.running_class = static_cast<int>(selection.batch.front().spec.priority);
  --queued_;  // the leader; followers count down in start_member()
  return selection;
}

void SchedCore::extend_batch(int device, std::vector<Pending>& batch, double now_us) {
  Slot& s = at(device);
  const std::string key = batch_key(batch.front().spec);
  const auto max = static_cast<std::size_t>(config_.batch_max);
  for (auto it = s.queue.begin(); it != s.queue.end() && batch.size() < max;) {
    if (it->ready_us <= now_us && batch_key(it->spec) == key) {
      batch.push_back(std::move(*it));
      it = s.queue.erase(it);
    } else {
      ++it;
    }
  }
}

SchedCore::Placement SchedCore::requeue(int device, Pending&& job, double now_us,
                                        double ready_us, int exclude) {
  at(device).backlog_us -= job.estimate_us;
  job.ready_us = ready_us;
  ++queued_;
  return enqueue(kPlace, std::move(job), now_us, exclude);
}

SchedCore::Fault SchedCore::fault(int device, Pending& job, double now_us) {
  Fault fault;
  Slot& s = at(device);
  fault.newly_degraded = !s.degraded;
  if (fault.newly_degraded) s.degraded_since_us = now_us;
  s.degraded = true;
  if (job.attempts >= config_.max_retries) return fault;
  ++job.attempts;
  const double backoff_ms =
      std::min(config_.retry_backoff_base_ms *
                   static_cast<double>(std::int64_t{1} << (job.attempts - 1)),
               config_.retry_backoff_cap_ms);
  fault.retry = requeue(device, std::move(job), now_us, now_us + backoff_ms * 1000.0, device);
  return fault;
}

void SchedCore::finish(int device, double estimate_us) {
  at(device).backlog_us -= estimate_us;
  --inflight_;
}

std::vector<SchedCore::Stolen> SchedCore::steal(int thief, double now_us) {
  // Victim: the busy active peer with the most stealable entries (an
  // idle one is about to run its queue, a draining one's is spoken for).
  // It keeps the entry it would select next unless that is all it holds.
  // Backing-off entries are stealable and keep their gate: nothing would
  // wake an idle thief when a victim-side backoff elapses.
  const auto kept = [&](const Slot& s) {
    return s.queue.size() > 1 ? best_ready(s, now_us) : s.queue.size();
  };
  int victim = -1;
  std::size_t stealable = 0;
  for (int i = 0; i < slot_count(); ++i) {
    const Slot& s = slots_[static_cast<std::size_t>(i)];
    if (i == thief || s.state != DevState::Active || s.running_class == kIdleClass) continue;
    const std::size_t n = s.queue.size() - (kept(s) < s.queue.size() ? 1 : 0);
    if (n > stealable) {
      victim = i;
      stealable = n;
    }
  }
  std::vector<Stolen> stolen;
  if (victim < 0) return stolen;
  Slot& from = at(victim);
  const std::size_t half = std::max<std::size_t>(1, from.queue.size() / 2);
  while (stolen.size() < std::min(half, stealable)) {
    const std::size_t keep = kept(from);
    std::size_t worst = from.queue.size();
    for (std::size_t i = 0; i < from.queue.size(); ++i) {
      if (i != keep && (worst == from.queue.size() || before(from.queue[worst], from.queue[i]))) {
        worst = i;
      }
    }
    Pending job = take(from, from.queue.begin() + static_cast<std::ptrdiff_t>(worst));
    stolen.push_back({job.id, job.attempts, victim});
    enqueue(thief, std::move(job), now_us);
  }
  return stolen;
}

int SchedCore::activate(double now_us) {
  for (int i = 0; i < slot_count(); ++i) {
    Slot& s = at(i);
    if (s.state != DevState::Inactive) continue;
    s.state = DevState::Active;
    s.warming = config_.warmup_ms > 0;
    s.warm_since_us = now_us;
    return i;
  }
  return -1;
}

int SchedCore::drain_victim(int device) const {
  if (active_count() <= 1) {
    throw ServeError("scale_down would leave the fleet without an active device");
  }
  if (device >= slot_count()) {
    throw ServeError(cat("scale_down: device ", device, " out of range (fleet has ",
                         slot_count(), " slot(s))"));
  }
  if (device >= 0) {
    if (slot(device).state != DevState::Active) {
      throw ServeError(cat("scale_down: device ", device, " is not active"));
    }
    return device;
  }
  return least_backlog(/*allow_impaired=*/true, /*exclude=*/-1);  // the cheapest drain
}

std::vector<SchedCore::Placement> SchedCore::drain(int device, double now_us) {
  Slot& s = at(device);
  s.state = DevState::Draining;
  s.warming = false;
  // Each job moves exactly once, backoff gate and progress intact.
  std::vector<Placement> rehomed;
  while (!s.queue.empty()) {
    rehomed.push_back(enqueue(kPlace, take(s, s.queue.begin()), now_us));
  }
  return rehomed;
}

void SchedCore::retire(int device) {
  Slot& s = at(device);
  s.state = DevState::Inactive;  // drain() already ended any warm-up
  s.running_class = kIdleClass;
}

}  // namespace saclo::serve
