// The pure scheduling core driven step by step under virtual time: no
// threads, no sleeps, no real clock — every schedule replays exactly.

#include "serve/sched_core.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

namespace saclo::serve {
namespace {

Pending job(std::uint64_t id, double estimate_us, Priority priority = Priority::Normal) {
  Pending p;
  p.id = id;
  p.estimate_us = estimate_us;
  p.spec.priority = priority;
  return p;
}

TEST(SchedCoreTest, IdleDeviceStealsABackedOffRetry) {
  // Device 1 faults its first job; the retry fails over behind a
  // backoff onto device 0, which is busy with a long job. Idle device 1
  // steals the retry back — backing-off entries are stealable, since
  // nothing would wake an idle thief when a victim-side backoff ends —
  // and runs it as attempt 1 once the backoff elapsed.
  SchedConfig config;
  config.work_stealing = true;
  config.degraded_cooldown_ms = -1.0;
  config.retry_backoff_base_ms = 0.05;
  config.retry_backoff_cap_ms = 0.5;
  SchedCore core(config, /*slots=*/2, /*active=*/2);

  EXPECT_EQ(core.submit(job(1, 6400.0), 0.0).target, 0) << "least-backlog tie-break";
  EXPECT_EQ(core.submit(job(2, 200.0), 0.0).target, 1);
  std::vector<Pending> big = core.select(0, 1.0).batch;
  std::vector<Pending> small = core.select(1, 1.0).batch;
  ASSERT_EQ(big.size(), 1u);
  ASSERT_EQ(small.size(), 1u);

  // 1. Device 1 faults.
  const SchedCore::Fault fault = core.fault(1, small.front(), 2.0);
  EXPECT_TRUE(fault.newly_degraded);
  EXPECT_TRUE(core.slot(1).degraded);
  // 2. The retry fails over behind a 50 us backoff onto busy device 0.
  ASSERT_TRUE(fault.retry.has_value());
  EXPECT_EQ(fault.retry->target, 0);
  ASSERT_EQ(core.slot(0).queue.size(), 1u);
  EXPECT_EQ(core.slot(0).queue.front().attempts, 1);
  EXPECT_DOUBLE_EQ(core.slot(0).queue.front().ready_us, 52.0);
  EXPECT_DOUBLE_EQ(core.slot(0).backlog_us, 6600.0);
  EXPECT_DOUBLE_EQ(core.slot(1).backlog_us, 0.0);

  // 3. Idle device 1 has nothing to run and steals the retry.
  const SchedCore::Selection idle = core.select(1, 3.0);
  EXPECT_TRUE(idle.batch.empty());
  EXPECT_FALSE(idle.wake_us.has_value());
  const std::vector<SchedCore::Stolen> stolen = core.steal(1, 3.0);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen.front().id, 2u);
  EXPECT_EQ(stolen.front().victim, 0);
  EXPECT_EQ(stolen.front().attempts, 1);
  EXPECT_TRUE(core.slot(0).queue.empty());
  EXPECT_DOUBLE_EQ(core.slot(0).backlog_us, 6400.0);
  EXPECT_DOUBLE_EQ(core.slot(1).backlog_us, 200.0);

  // The stolen entry keeps its gate: device 1 sleeps until it opens,
  // then runs the job as attempt 1.
  const SchedCore::Selection gated = core.select(1, 3.0);
  EXPECT_TRUE(gated.batch.empty());
  ASSERT_TRUE(gated.wake_us.has_value());
  EXPECT_DOUBLE_EQ(*gated.wake_us, 52.0);
  const std::vector<Pending> run = core.select(1, 52.0).batch;
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run.front().id, 2u);
  EXPECT_EQ(run.front().attempts, 1);

  core.finish(1, run.front().estimate_us);
  core.finish(0, big.front().estimate_us);
  EXPECT_EQ(core.inflight(), 0u);
  EXPECT_EQ(core.queued(), 0u);
  EXPECT_DOUBLE_EQ(core.slot(0).backlog_us, 0.0);
  EXPECT_DOUBLE_EQ(core.slot(1).backlog_us, 0.0);
}

TEST(SchedCoreTest, StealLeavesTheVictimTheJobItWouldRunNext) {
  SchedConfig config;
  config.work_stealing = true;
  config.policy = SchedPolicy::Priority;
  SchedCore core(config, /*slots=*/2, /*active=*/2);
  core.submit(job(1, 100.0), 0.0);  // device 0
  core.submit(job(2, 100.0), 0.0);  // device 1
  ASSERT_EQ(core.select(0, 0.0).batch.size(), 1u);
  EXPECT_TRUE(core.steal(1, 0.0).empty()) << "nothing queued behind the running job";
  core.enqueue(0, job(3, 10.0, Priority::High), 0.0);
  core.enqueue(0, job(4, 10.0, Priority::Low), 0.0);
  core.enqueue(0, job(5, 10.0, Priority::Normal), 0.0);
  // Three queued: half of them (one) goes, the policy-worst.
  std::vector<SchedCore::Stolen> stolen = core.steal(1, 0.0);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen.front().id, 4u);
  // Two queued: the victim keeps job 3, the one it would run next.
  stolen = core.steal(1, 0.0);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen.front().id, 5u);
  // One queued: it goes too. The victim is busy; the thief can start it
  // now instead of leaving it behind the running job.
  stolen = core.steal(1, 0.0);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen.front().id, 3u);
  EXPECT_TRUE(core.slot(0).queue.empty());
  EXPECT_DOUBLE_EQ(core.slot(0).backlog_us, 100.0);
  EXPECT_DOUBLE_EQ(core.slot(1).backlog_us, 130.0);
}

TEST(SchedCoreTest, PlacementSkipsImpairedDevicesUntilTheyHeal) {
  SchedConfig config;
  config.degraded_cooldown_ms = 1.0;
  config.warmup_ms = 2.0;
  SchedCore core(config, /*slots=*/3, /*active=*/2);
  Pending faulted = job(1, 50.0);
  ASSERT_EQ(core.submit(std::move(faulted), 0.0).target, 0);
  std::vector<Pending> running = core.select(0, 0.0).batch;
  ASSERT_EQ(core.fault(0, running.front(), 0.0).retry->target, 1);
  EXPECT_EQ(core.activate(0.0), 2);
  EXPECT_TRUE(core.slot(2).warming);
  // Device 0 is degraded and device 2 warming: device 1 takes the job
  // although its backlog (the retry) is the largest.
  EXPECT_EQ(core.submit(job(2, 10.0), 10.0).target, 1);
  // The cooldown elapsed at 1 ms: device 0 heals on the next placement.
  const SchedCore::Placement healed = core.submit(job(3, 10.0), 1000.0);
  EXPECT_EQ(healed.healed, std::vector<int>{0});
  EXPECT_EQ(healed.target, 0);
  EXPECT_TRUE(core.slot(2).warming);
  // At 2 ms the warm-up ends on the same sweep, and the empty device
  // takes the next job.
  EXPECT_EQ(core.submit(job(4, 1.0), 2000.0).target, 2);
  EXPECT_FALSE(core.slot(2).warming);
}

TEST(SchedCoreTest, DrainRehomesEveryQueuedJobWithItsGate) {
  SchedConfig config;
  SchedCore core(config, /*slots=*/2, /*active=*/2);
  core.submit(job(1, 100.0), 0.0);  // device 0
  core.submit(job(2, 100.0), 0.0);  // device 1
  Pending gated = job(3, 10.0);
  gated.ready_us = 500.0;
  core.enqueue(1, std::move(gated), 0.0);
  EXPECT_EQ(core.drain_victim(-1), 0) << "the smaller backlog drains";
  const std::vector<SchedCore::Placement> rehomed = core.drain(1, 1.0);
  ASSERT_EQ(rehomed.size(), 2u);
  for (const SchedCore::Placement& p : rehomed) EXPECT_EQ(p.target, 0);
  EXPECT_EQ(core.slot(1).state, DevState::Draining);
  EXPECT_DOUBLE_EQ(core.slot(1).backlog_us, 0.0);
  EXPECT_DOUBLE_EQ(core.slot(0).backlog_us, 210.0);
  EXPECT_DOUBLE_EQ(core.slot(0).queue.back().ready_us, 500.0) << "the backoff gate survives";
  EXPECT_THROW(core.drain_victim(0), ServeError) << "one active device left";
  core.retire(1);
  EXPECT_EQ(core.slot(1).state, DevState::Inactive);
  EXPECT_EQ(core.activate(2.0), 1);
}

}  // namespace
}  // namespace saclo::serve
