// Seeded schedule explorer over the pure scheduling core. Each seed
// draws a fleet configuration, then a few hundred steps of arrivals,
// dispatches, completions, faults, frame-boundary preemptions, steals,
// scale events and time advances, driven on one thread under virtual
// time. A small model of what the threaded shell holds (the batch each
// device is running, the finished jobs) lives beside the core, and
// every step checks the scheduling invariants against it. A failure
// names its seed and step; explore(seed, step + 1) replays it exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "serve/sched_core.hpp"

namespace saclo::serve {
namespace {

constexpr int kSeeds = 1000;
constexpr int kSteps = 200;

struct Explorer {
  std::uint64_t seed;
  int step = 0;
  std::mt19937_64 rng;
  SchedConfig config;
  SchedCore core;
  std::size_t capacity;
  double now = 0;
  std::uint64_t next_id = 1;
  // What the shell holds: each device's batch (front = running, the
  // rest committed followers not started yet) and its preempt flag.
  std::vector<std::deque<Pending>> batch;
  std::vector<bool> preempt_flag;
  std::size_t submitted = 0;
  std::set<std::uint64_t> completed, failed, shed;
  std::string failure;
  std::uint64_t trace = 1469598103934665603ULL;  ///< FNV-1a over every decision

  Explorer(std::uint64_t s, const SchedConfig& c, int slots, int active, std::size_t cap)
      : seed(s), rng(s ^ 0x5eedULL), config(c), core(c, slots, active), capacity(cap),
        batch(static_cast<std::size_t>(slots)), preempt_flag(static_cast<std::size_t>(slots)) {}

  std::uint64_t draw(std::uint64_t n) { return rng() % n; }
  void mix(std::uint64_t v) { trace = (trace ^ v) * 1099511628211ULL; }

  void check(bool ok, const std::string& what) {
    if (ok || !failure.empty()) return;
    std::ostringstream out;
    out << "schedule explorer: " << what << " -- repro: explore(/*seed=*/" << seed
        << ", /*steps=*/" << step + 1 << ")";
    failure = out.str();
  }

  bool impaired(int d) const { return core.slot(d).degraded || core.slot(d).warming; }

  // A placement the core chose (after its heal sweep) must be active and
  // not impaired while a healthy, warm, active device other than the
  // excluded one exists.
  void check_placement(const SchedCore::Placement& p, int exclude) {
    check(p.target >= 0 && p.target < core.slot_count(), "placement out of range");
    if (!failure.empty()) return;
    check(core.slot(p.target).state == DevState::Active, "placement on an inactive/draining slot");
    if (!impaired(p.target)) return;
    for (int d = 0; d < core.slot_count(); ++d) {
      check(d == exclude || core.slot(d).state != DevState::Active || impaired(d),
            "placement on a degraded or warming device while a healthy one exists");
    }
  }

  void record(const SchedCore::Placement& p, int exclude) {
    check_placement(p, exclude);
    mix(static_cast<std::uint64_t>(p.target));
    if (p.preempt) preempt_flag[static_cast<std::size_t>(p.target)] = true;
  }

  // The oracle: Fifo takes the first ready entry in queue order, the
  // other policies the policy-best ready one. nullptr when none is ready.
  const Pending* best_ready(const std::deque<Pending>& queue) const {
    const Pending* best = nullptr;
    for (const Pending& p : queue) {
      if (p.ready_us > now) continue;
      if (config.policy == SchedPolicy::Fifo) return &p;
      if (best == nullptr || schedules_before(config.policy, key(p), key(*best))) best = &p;
    }
    return best;
  }
  static SchedKey key(const Pending& p) { return {p.spec.priority, p.deadline_abs_us, p.id}; }

  int random_device() {
    return static_cast<int>(draw(static_cast<std::uint64_t>(core.slot_count())));
  }

  void arrive() {
    if (core.inflight() >= capacity) {  // the shell sheds instead
      ++submitted;
      shed.insert(next_id++);
      return;
    }
    Pending p;
    p.id = next_id++;
    p.estimate_us = static_cast<double>(1 + draw(64)) * 16.0;  // exact in binary
    p.spec.route = static_cast<Route>(draw(3));
    p.spec.opt_level = static_cast<int>(draw(2));
    p.spec.priority = static_cast<Priority>(draw(3));
    p.spec.deadline_ms = draw(2) == 0 ? 0.0 : static_cast<double>(1 + draw(8));
    p.spec.tenant = draw(2) == 0 ? "gold" : "free";
    ++submitted;
    record(core.submit(std::move(p), now), /*exclude=*/-1);
  }

  void dispatch(int d) {
    auto& held = batch[static_cast<std::size_t>(d)];
    if (!held.empty()) return;  // busy: the dispatcher is inside run_job
    const SchedCore::Slot& slot = core.slot(d);
    if (slot.state == DevState::Draining && slot.queue.empty()) {
      core.retire(d);
      return;
    }
    const Pending* expect = best_ready(slot.queue);
    const std::uint64_t expect_id = expect != nullptr ? expect->id : 0;
    std::optional<double> expect_wake;
    for (const Pending& p : slot.queue) {
      if (!expect_wake || p.ready_us < *expect_wake) expect_wake = p.ready_us;
    }
    SchedCore::Selection selection = core.select(d, now);
    if (selection.batch.empty()) {
      check(expect == nullptr, "a ready job was not selected");
      check(selection.wake_us == expect_wake, "the wake-up is not the earliest backoff gate");
      return;
    }
    const Pending& leader = selection.batch.front();
    const std::string key = batch_key(leader.spec);
    mix(leader.id);
    check(leader.ready_us <= now, "selected before its ready_time");
    check(leader.id == expect_id, "the selection is not policy-best among the ready entries");
    check(core.slot(d).running_class == static_cast<int>(leader.spec.priority),
          "running class not recorded");
    preempt_flag[static_cast<std::size_t>(d)] = false;
    if (config.batch_max > 1) core.extend_batch(d, selection.batch, now);
    check(selection.batch.size() <= static_cast<std::size_t>(config.batch_max), "batch too big");
    for (const Pending& member : selection.batch) {
      check(member.ready_us <= now, "batched before its ready_time");
      check(batch_key(member.spec) == key, "batched across keys");
    }
    held.assign(std::make_move_iterator(selection.batch.begin()),
                std::make_move_iterator(selection.batch.end()));
  }

  // The running member left the device: start the next one, if any.
  void advance_batch(std::deque<Pending>& held) {
    held.pop_front();
    if (!held.empty()) core.start_member();
  }

  void complete(int d) {
    auto& held = batch[static_cast<std::size_t>(d)];
    if (held.empty()) return;
    core.finish(d, held.front().estimate_us);
    completed.insert(held.front().id);
    advance_batch(held);
  }

  void fault(int d) {
    auto& held = batch[static_cast<std::size_t>(d)];
    if (held.empty()) return;
    Pending& job = held.front();
    const int attempts = job.attempts;
    const std::uint64_t id = job.id;
    const SchedCore::Fault fault = core.fault(d, job, now);
    // A zero cooldown heals the device in the retry's own placement.
    check(core.slot(d).degraded ||
              (fault.retry && std::count(fault.retry->healed.begin(),
                                         fault.retry->healed.end(), d) == 1),
          "a faulted device is not degraded");
    if (fault.retry) {
      check(attempts < config.max_retries, "retried past the budget");
      record(*fault.retry, /*exclude=*/d);
      const auto& queue = core.slot(fault.retry->target).queue;
      const double backoff_ms =
          std::min(config.retry_backoff_base_ms * static_cast<double>(1 << attempts),
                   config.retry_backoff_cap_ms);
      check(!queue.empty() && queue.back().id == id && queue.back().attempts == attempts + 1 &&
                queue.back().ready_us == now + backoff_ms * 1000.0,
            "the retry is not gated by its backoff");
    } else {
      check(attempts >= config.max_retries, "a retry within the budget was dropped");
      core.finish(d, job.estimate_us);
      failed.insert(id);
    }
    advance_batch(held);
  }

  // The frame-boundary gate: only a lone (uncoalesced) job stops, and
  // only on a preempt request or a drain.
  void preempt(int d) {
    auto& held = batch[static_cast<std::size_t>(d)];
    if (held.size() != 1) return;
    const bool preemptable = config.preemption && config.policy != SchedPolicy::Fifo;
    const bool draining = core.slot(d).state == DevState::Draining;
    if (!draining && !(preemptable && preempt_flag[static_cast<std::size_t>(d)])) return;
    record(core.requeue(d, std::move(held.front()), now, now), /*exclude=*/-1);
    held.clear();
  }

  void steal(int thief) {
    if (!config.work_stealing || !batch[static_cast<std::size_t>(thief)].empty()) return;
    if (core.slot(thief).state != DevState::Active || !core.slot(thief).queue.empty()) return;
    // The victim keeps the entry it would select next, unless that entry
    // is all it holds.
    std::vector<std::uint64_t> kept(static_cast<std::size_t>(core.slot_count()), 0);
    for (int d = 0; d < core.slot_count(); ++d) {
      const Pending* best = best_ready(core.slot(d).queue);
      if (best != nullptr && core.slot(d).queue.size() > 1) {
        kept[static_cast<std::size_t>(d)] = best->id;
      }
    }
    for (const SchedCore::Stolen& s : core.steal(thief, now)) {
      mix(s.id);
      check(s.victim != thief && core.slot(s.victim).state == DevState::Active,
            "stole from itself or from an inactive/draining slot");
      check(s.id != kept[static_cast<std::size_t>(s.victim)],
            "a steal took the job the victim would run next from a deeper queue");
    }
  }

  void scale_down(int d) {
    try {
      const int victim = core.drain_victim(draw(2) == 0 ? -1 : d);
      for (const SchedCore::Placement& p : core.drain(victim, now)) record(p, /*exclude=*/-1);
    } catch (const ServeError&) {
      check(core.active_count() <= 1 || core.slot(d).state != DevState::Active,
            "a legal scale-down was refused");
    }
  }

  void advance_time() {
    // Mostly small steps, sometimes past every backoff, cooldown and
    // warm-up at once.
    const double big = std::max({config.retry_backoff_cap_ms, config.degraded_cooldown_ms,
                                 config.warmup_ms}) * 1000.0 + 1.0;
    now += draw(4) == 0 ? big : static_cast<double>(draw(200));
  }

  void check_invariants() {
    std::map<std::uint64_t, int> seen;
    std::size_t queued = 0;
    std::size_t running = 0;
    for (int d = 0; d < core.slot_count(); ++d) {
      const SchedCore::Slot& slot = core.slot(d);
      const auto& held = batch[static_cast<std::size_t>(d)];
      double backlog = 0;
      for (const Pending& p : slot.queue) {
        ++seen[p.id];
        backlog += p.estimate_us;
      }
      for (const Pending& p : held) {
        ++seen[p.id];
        backlog += p.estimate_us;
      }
      queued += slot.queue.size() + (held.empty() ? 0 : held.size() - 1);
      running += held.empty() ? 0 : 1;
      check(slot.backlog_us == backlog, "a backlog is not the sum of its jobs' estimates");
      check(slot.state != DevState::Inactive || (slot.queue.empty() && held.empty()),
            "an inactive slot holds jobs");
    }
    for (const auto* done : {&completed, &failed, &shed}) {
      for (std::uint64_t id : *done) ++seen[id];
    }
    check(seen.size() == submitted, "a job id went missing");
    for (const auto& [id, n] : seen) check(n == 1, "a job id is in two places");
    check(submitted == queued + running + completed.size() + failed.size() + shed.size(),
          "submitted != queued + running + completed + failed + shed");
    check(core.queued() == queued, "the core's queued count drifted");
    check(core.inflight() == queued + running, "the core's inflight count drifted");
    check(core.active_count() >= 1, "the fleet lost its last active device");
  }

  void run(int steps) {
    for (step = 0; step < steps && failure.empty(); ++step) {
      const int d = random_device();
      switch (draw(10)) {
        case 0:
        case 1:
          arrive();
          break;
        case 2:
        case 3:
          dispatch(d);
          break;
        case 4:
          complete(d);
          break;
        case 5:
          fault(d);
          break;
        case 6:
          preempt(d);
          break;
        case 7:
          steal(d);
          break;
        case 8:
          if (draw(2) == 0) {
            core.activate(now);
          } else {
            scale_down(d);
          }
          break;
        default:
          advance_time();
          break;
      }
      check_invariants();
    }
  }
};

struct Outcome {
  std::string failure;  ///< "" when every invariant held, else a one-line repro
  std::uint64_t trace = 0;
};

/// Runs `steps` steps of the schedule `seed` draws.
Outcome explore(std::uint64_t seed, int steps) {
  std::mt19937_64 rng(seed);
  SchedConfig config;
  config.policy = static_cast<SchedPolicy>(rng() % 3);
  config.preemption = rng() % 4 != 0;
  config.work_stealing = rng() % 2 == 0;
  config.batch_max = static_cast<int>(1 + rng() % 3);
  config.max_retries = static_cast<int>(rng() % 4);
  config.retry_backoff_base_ms = 0.05 * static_cast<double>(1 + rng() % 4);
  config.retry_backoff_cap_ms = 0.5;
  config.degraded_cooldown_ms = rng() % 3 == 0 ? -1.0 : static_cast<double>(rng() % 3);
  config.warmup_ms = static_cast<double>(rng() % 3);
  const int slots = static_cast<int>(1 + rng() % 4);
  const int active = static_cast<int>(1 + rng() % static_cast<std::uint64_t>(slots));
  Explorer explorer(seed, config, slots, active, /*cap=*/4 + rng() % 12);
  explorer.run(steps);
  return {explorer.failure, explorer.trace};
}

TEST(SchedExplorerTest, RandomSchedulesKeepTheInvariants) {
  int failures = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string failure = explore(seed, kSteps).failure;
    if (!failure.empty() && ++failures <= 5) ADD_FAILURE() << failure;
  }
  EXPECT_EQ(failures, 0) << "of " << kSeeds << " seeds";
}

TEST(SchedExplorerTest, SchedulesReplayFromTheirSeed) {
  // Same seed, same schedule: the explorer (and the core under it) uses
  // no real clock, thread or unseeded randomness.
  for (std::uint64_t seed : {7u, 99u}) {
    EXPECT_EQ(explore(seed, kSteps).trace, explore(seed, kSteps).trace);
  }
  EXPECT_NE(explore(7, kSteps).trace, explore(99, kSteps).trace);
}

}  // namespace
}  // namespace saclo::serve
