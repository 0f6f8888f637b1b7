// The SLO burn-rate alert engine, driven tick by tick with a fake
// clock: a fault storm must raise the alert deterministically, healing
// must clear it only after the hold, and the burn-rate arithmetic must
// match the SRE definition (windowed error rate / error budget).

#include "obs/alerts.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/mini_json.hpp"

namespace saclo::obs {
namespace {

using saclo::testsupport::Json;
using saclo::testsupport::parse_json;

/// A sample carrying one tenant's cumulative SLO counters.
AlertSample tenant_sample(double now_ms, std::int64_t slo_jobs, std::int64_t slo_met) {
  AlertSample s;
  s.now_ms = now_ms;
  s.queue_capacity = 64;
  s.active_devices = 2;
  s.tenants.push_back(TenantCounters{"gold", slo_jobs, slo_met});
  return s;
}

TEST(AlertPolicyTest, ValidatesEveryField) {
  EXPECT_NO_THROW(AlertPolicy{}.validate());
  auto expect_invalid = [](auto mutate) {
    AlertPolicy p;
    mutate(p);
    EXPECT_THROW(p.validate(), AlertError);
  };
  expect_invalid([](AlertPolicy& p) { p.slo_objective = 0.0; });
  expect_invalid([](AlertPolicy& p) { p.slo_objective = 1.0; });
  expect_invalid([](AlertPolicy& p) { p.fast_window_ms = 0; });
  expect_invalid([](AlertPolicy& p) { p.slow_window_ms = p.fast_window_ms - 1; });
  expect_invalid([](AlertPolicy& p) { p.fast_burn = 0; });
  expect_invalid([](AlertPolicy& p) { p.slow_burn = -1; });
  expect_invalid([](AlertPolicy& p) { p.queue_saturation = 0.0; });
  expect_invalid([](AlertPolicy& p) { p.queue_saturation = 1.5; });
  expect_invalid([](AlertPolicy& p) { p.clear_hold_ms = -1; });
}

TEST(AlertPolicyTest, DefaultBurnThresholdsAreReachable) {
  // Burn rate is capped at 1 / (1 - objective) — every job missing.
  // A default threshold above that cap could never fire.
  const AlertPolicy p;
  const double max_burn = 1.0 / (1.0 - p.slo_objective);
  EXPECT_LT(p.fast_burn, max_burn);
  EXPECT_LT(p.slow_burn, max_burn);
}

TEST(AlertEngineTest, BurnRateMatchesTheSreDefinition) {
  AlertPolicy policy;
  policy.slo_objective = 0.9;  // error budget 0.1
  AlertEngine engine(policy);
  engine.step(tenant_sample(0, 0, 0));
  engine.step(tenant_sample(100, 10, 5));  // 50% errors in the window
  // burn = 0.5 / 0.1 = 5 over any window that reaches the baseline.
  EXPECT_DOUBLE_EQ(engine.burn_rate("gold", 200), 5.0);
  EXPECT_DOUBLE_EQ(engine.burn_rate("gold", 1000), 5.0);
  EXPECT_DOUBLE_EQ(engine.burn_rate("unknown-tenant", 200), 0.0);
}

TEST(AlertEngineTest, NoCompletionsInWindowBurnsNothing) {
  AlertEngine engine(AlertPolicy{});
  engine.step(tenant_sample(0, 10, 2));
  engine.step(tenant_sample(100, 10, 2));  // no new jobs
  // The deltas are zero: an idle tenant is not an erroring tenant.
  EXPECT_DOUBLE_EQ(engine.burn_rate("gold", 50), 0.0);
}

TEST(AlertEngineTest, FaultStormRaisesAndHealingClearsDeterministically) {
  AlertPolicy policy;  // 200/1000 ms windows, 6x/3x, clear hold 400 ms
  AlertEngine engine(policy);

  // Healthy warm-up: every SLO job meets its deadline.
  std::int64_t jobs = 0, met = 0;
  std::vector<AlertTransition> fired;
  for (double t = 0; t <= 500; t += 100) {
    jobs += 10;
    met += 10;
    fired = engine.step(tenant_sample(t, jobs, met));
    EXPECT_TRUE(fired.empty()) << "healthy traffic raised at t=" << t;
  }

  // Fault storm: every job misses. Error rate hits 1.0 in the fast
  // window (burn 10 >= 6); the slow window confirms once enough of its
  // span is storm (>= 30% errors -> burn >= 3).
  double raised_at = -1;
  for (double t = 600; t <= 1500; t += 100) {
    jobs += 10;  // all missed: met stays put
    fired = engine.step(tenant_sample(t, jobs, met));
    for (const AlertTransition& tr : fired) {
      if (tr.kind == AlertKind::SloBurnRate && tr.raised) raised_at = tr.at_ms;
    }
    if (raised_at >= 0) break;
  }
  ASSERT_GE(raised_at, 0) << "storm never raised the burn-rate alert";
  ASSERT_EQ(engine.active_count(), 1u);
  EXPECT_EQ(engine.active()[0].subject, "gold");

  // Healing: jobs meet their deadlines again. The alert must hold
  // through clear_hold_ms of health, then clear exactly once.
  double cleared_at = -1;
  double first_healthy = -1;
  for (double t = raised_at + 100; t <= raised_at + 3000; t += 100) {
    jobs += 10;
    met += 10;
    fired = engine.step(tenant_sample(t, jobs, met));
    const double fast = engine.burn_rate("gold", policy.fast_window_ms);
    const double slow = engine.burn_rate("gold", policy.slow_window_ms);
    const bool healthy = fast < policy.fast_burn || slow < policy.slow_burn;
    if (healthy && first_healthy < 0) first_healthy = t;
    for (const AlertTransition& tr : fired) {
      if (tr.kind == AlertKind::SloBurnRate && !tr.raised) cleared_at = tr.at_ms;
    }
    if (cleared_at >= 0) break;
  }
  ASSERT_GE(cleared_at, 0) << "healing never cleared the alert";
  EXPECT_GE(cleared_at - first_healthy, policy.clear_hold_ms)
      << "alert cleared before the hold elapsed";
  EXPECT_EQ(engine.active_count(), 0u);
}

TEST(AlertEngineTest, BriefBlipDoesNotClearEarly) {
  AlertPolicy policy;
  policy.clear_hold_ms = 400;
  AlertEngine engine(policy);
  AlertSample s;
  s.now_ms = 0;
  s.queue_capacity = 10;
  s.queued = 10;  // saturated
  ASSERT_EQ(engine.step(s).size(), 1u);
  // Healthy for 300 ms — inside the hold — then hot again.
  s.queued = 0;
  s.now_ms = 100;
  EXPECT_TRUE(engine.step(s).empty());
  s.now_ms = 300;
  EXPECT_TRUE(engine.step(s).empty());
  s.queued = 10;
  s.now_ms = 400;
  EXPECT_TRUE(engine.step(s).empty()) << "still firing: no re-raise transition";
  EXPECT_EQ(engine.active_count(), 1u);
}

TEST(AlertEngineTest, QueueSaturationRaisesAtThreshold) {
  AlertPolicy policy;
  policy.queue_saturation = 0.9;
  policy.clear_hold_ms = 0;  // clear on the first healthy sample
  AlertEngine engine(policy);
  AlertSample s;
  s.queue_capacity = 10;
  s.queued = 8;
  s.now_ms = 0;
  EXPECT_TRUE(engine.step(s).empty());
  s.queued = 9;  // exactly at threshold
  s.now_ms = 1;
  std::vector<AlertTransition> fired = engine.step(s);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, AlertKind::QueueSaturation);
  EXPECT_TRUE(fired[0].raised);
  EXPECT_DOUBLE_EQ(fired[0].value, 0.9);
  s.queued = 0;
  s.now_ms = 2;
  fired = engine.step(s);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_FALSE(fired[0].raised);
}

TEST(AlertEngineTest, ZeroCapacityQueueNeverSaturates) {
  AlertEngine engine(AlertPolicy{});
  AlertSample s;
  s.queue_capacity = 0;  // unbounded queue
  s.queued = 1000;
  EXPECT_TRUE(engine.step(s).empty());
}

TEST(AlertEngineTest, DegradedDeviceRaisesAndHealingClears) {
  AlertPolicy policy;
  policy.clear_hold_ms = 200;
  AlertEngine engine(policy);
  AlertSample s;
  s.queue_capacity = 10;
  s.degraded_devices = 1;
  s.active_devices = 2;
  s.now_ms = 0;
  std::vector<AlertTransition> fired = engine.step(s);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, AlertKind::DeviceDegraded);
  EXPECT_DOUBLE_EQ(fired[0].value, 1.0);
  s.degraded_devices = 0;
  s.now_ms = 100;
  EXPECT_TRUE(engine.step(s).empty());  // hold not elapsed
  s.now_ms = 300;
  fired = engine.step(s);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_FALSE(fired[0].raised);
}

TEST(AlertEngineTest, OutOfOrderSampleThrows) {
  AlertEngine engine(AlertPolicy{});
  AlertSample s;
  s.now_ms = 100;
  engine.step(s);
  s.now_ms = 50;
  EXPECT_THROW(engine.step(s), AlertError);
}

TEST(AlertEngineTest, HistoryTrimKeepsOneBaselineBeyondSlowWindow) {
  // Long runs must not accumulate unbounded history, but the slow
  // window always needs a baseline at or before its start — burn rates
  // stay correct across the trim.
  AlertPolicy policy;
  AlertEngine engine(policy);
  std::int64_t jobs = 0;
  for (double t = 0; t <= 10000; t += 100) {
    jobs += 10;
    engine.step(tenant_sample(t, jobs, jobs / 2));  // steady 50% errors
  }
  EXPECT_DOUBLE_EQ(engine.burn_rate("gold", policy.slow_window_ms), 5.0);
}

TEST(AlertTransitionJsonTest, GoldenLineAndEscaping) {
  AlertTransition t{AlertKind::SloBurnRate, true, "gold", 1234.5, 7.5};
  EXPECT_EQ(alert_transition_json(t),
            "{\"type\":\"alert_raised\",\"kind\":\"slo_burn_rate\","
            "\"subject\":\"gold\",\"t_ms\":1234.500,\"value\":7.5000}");
  AlertTransition hostile{AlertKind::QueueSaturation, false, "a\"b\\c\nd", 1, 0.5};
  const std::string line = alert_transition_json(hostile);
  EXPECT_NE(line.find("a\\\"b\\\\c\\nd"), std::string::npos)
      << "tenant-controlled subject must be JSON-escaped: " << line;
}

TEST(AlertKindTest, WireNamesAreStable) {
  EXPECT_STREQ(alert_kind_name(AlertKind::SloBurnRate), "slo_burn_rate");
  EXPECT_STREQ(alert_kind_name(AlertKind::QueueSaturation), "queue_saturation");
  EXPECT_STREQ(alert_kind_name(AlertKind::DeviceDegraded), "device_degraded");
}

TEST(AlertTransitionJsonTest, ControlBytesInSubjectParseStrictly) {
  const std::string hostile = "ev\til\r\x01";
  AlertTransition t{AlertKind::SloBurnRate, true, hostile, 1, 2};
  const Json line = parse_json(alert_transition_json(t));
  EXPECT_EQ(line.at("subject").string, hostile);
}

}  // namespace
}  // namespace saclo::obs
