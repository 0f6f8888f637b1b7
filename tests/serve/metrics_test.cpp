#include "serve/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/mini_json.hpp"

namespace saclo::serve {
namespace {

using saclo::testsupport::Json;
using saclo::testsupport::parse_json;

TEST(PercentileTest, InterpolatesBetweenSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.5);
  EXPECT_NEAR(percentile(v, 0.99), 99.01, 1e-9);
}

TEST(PercentileTest, HandlesDegenerateSamples) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0}, 0.5), 2.0);  // sorts internally
}

JobResult job(int frames, double sim_us, double latency_us) {
  JobResult r;
  r.frames = frames;
  r.sim_wall_us = sim_us;
  r.latency_us = latency_us;
  r.tenant = "default";
  return r;
}

TEST(FleetMetricsTest, TracksQueueDepthHighWater) {
  FleetMetrics m(2);
  m.on_submit(1, 0, "default", 1, 0);
  m.on_submit(1, 0, "default", 1, 0);
  m.on_submit(1, 0, "default", 1, 0);
  m.on_dispatch(1, 0, 0, 0);
  const FleetMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.devices[0].queue_depth, 2);
  EXPECT_EQ(s.devices[0].max_queue_depth, 3);
  EXPECT_EQ(s.devices[0].running, 1);
  EXPECT_EQ(s.devices[1].max_queue_depth, 0);
}

TEST(FleetMetricsTest, ComputesUtilizationAgainstFleetMakespan) {
  FleetMetrics m(2);
  // Device 0 runs two jobs to a sim clock of 1000us; device 1 one job
  // to 500us. Makespan is 1000us, so utilizations are 1.0 and 0.5.
  m.on_submit(1, 0, "default", 1, 0);
  m.on_dispatch(1, 0, 0, 0);
  m.on_complete(0, job(4, 400.0, 900.0), 400.0);
  m.on_submit(1, 0, "default", 1, 0);
  m.on_dispatch(1, 0, 0, 0);
  m.on_complete(0, job(4, 600.0, 1100.0), 1000.0);
  m.on_submit(1, 1, "default", 1, 0);
  m.on_dispatch(1, 1, 0, 0);
  m.on_complete(1, job(4, 500.0, 800.0), 500.0);

  const FleetMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.jobs_completed, 3);
  EXPECT_EQ(s.frames_completed, 12);
  EXPECT_DOUBLE_EQ(s.sim_makespan_us, 1000.0);
  EXPECT_DOUBLE_EQ(s.devices[0].utilization, 1.0);
  EXPECT_DOUBLE_EQ(s.devices[1].utilization, 0.5);
  // 12 frames / 1000us of simulated fleet time = 12000 frames/s.
  EXPECT_DOUBLE_EQ(s.throughput_fps_sim, 12000.0);
  // Extrema are tracked exactly by the latency histogram; percentiles
  // are accurate to one log-bucket width (~19%) of the exact sample
  // percentile (here the exact p50 of {800, 900, 1100} is 900).
  EXPECT_DOUBLE_EQ(s.latency_max_us, 1100.0);
  const double p50_bucket_width =
      obs::LogHistogram::upper_bound(obs::LogHistogram::bucket_index(900.0)) -
      obs::LogHistogram::lower_bound(obs::LogHistogram::bucket_index(900.0));
  EXPECT_NEAR(s.latency_p50_us, 900.0, p50_bucket_width);
}

TEST(FleetMetricsTest, CountsFailedJobsSeparately) {
  FleetMetrics m(1);
  m.on_submit(1, 0, "default", 1, 0);
  m.on_dispatch(1, 0, 0, 0);
  m.on_failed(1, 0, 0, 0);
  const FleetMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.jobs_submitted, 1);
  EXPECT_EQ(s.jobs_completed, 0);
  EXPECT_EQ(s.jobs_failed, 1);
  EXPECT_EQ(s.devices[0].running, 0);
}

TEST(FleetMetricsTest, JsonExportParsesAndCarriesTheNumbers) {
  FleetMetrics m(2);
  m.on_submit(1, 0, "default", 1, 0);
  m.on_dispatch(1, 0, 0, 0);
  m.on_complete(0, job(8, 250.0, 470.0), 250.0);
  m.set_elapsed_real_us(1000.0);
  CachingDeviceAllocator::Stats alloc;
  alloc.hits = 9;
  alloc.misses = 3;
  alloc.pool_peak_bytes = 4096;
  m.set_allocator_stats(0, alloc);

  const Json root = parse_json(m.json());
  ASSERT_TRUE(root.is_object());
  EXPECT_DOUBLE_EQ(root.at("devices").number, 2.0);
  EXPECT_DOUBLE_EQ(root.at("jobs_completed").number, 1.0);
  EXPECT_DOUBLE_EQ(root.at("frames_completed").number, 8.0);
  EXPECT_DOUBLE_EQ(root.at("sim_makespan_us").number, 250.0);
  EXPECT_DOUBLE_EQ(root.at("latency_real_us").at("p50").number, 470.0);
  ASSERT_TRUE(root.at("per_device").is_array());
  ASSERT_EQ(root.at("per_device").array.size(), 2u);
  const Json& dev0 = root.at("per_device").array[0];
  EXPECT_DOUBLE_EQ(dev0.at("jobs").number, 1.0);
  ASSERT_TRUE(dev0.has("allocator"));
  EXPECT_DOUBLE_EQ(dev0.at("allocator").at("hits").number, 9.0);
  EXPECT_DOUBLE_EQ(dev0.at("allocator").at("pool_peak_bytes").number, 4096.0);
  EXPECT_FALSE(root.at("per_device").array[1].has("allocator"));
}

TEST(FleetMetricsTest, JsonPercentilesStayInsideTheirPrometheusBucket) {
  // A latency exactly at the top of a bucket whose bound has no short
  // decimal form (2^13.25 us). Rounded to 0.1 us the JSON p95 would
  // read 9742.0, above the bucket's exact bound; the JSON percentile
  // must still fall at or below the le that counts the sample.
  const double top = obs::LogHistogram::upper_bound(53);
  FleetMetrics m(1);
  m.on_submit(1, 0, "default", 1, 0);
  m.on_dispatch(1, 0, 0, 0);
  m.on_complete(0, job(1, 10.0, top), 10.0);

  const double p95 = parse_json(m.json()).at("latency_real_us").at("p95").number;
  EXPECT_EQ(p95, top);
  const std::string prom = m.prometheus();
  const std::string key = "saclo_job_latency_us_bucket{le=\"";
  const std::size_t last = prom.rfind(key, prom.find(key + "+Inf") - 1);
  ASSERT_NE(last, std::string::npos);
  const std::size_t le_at = last + key.size();
  EXPECT_LE(p95, std::stod(prom.substr(le_at, prom.find('"', le_at) - le_at)));
}

TEST(FleetMetricsTest, FailedJobsAreAttributedToTheirDevice) {
  // Regression: on_failed() used to bump only the fleet total, so the
  // per-device rows could not show where jobs were dying.
  FleetMetrics m(2);
  m.on_submit(1, 1, "default", 1, 0);
  m.on_dispatch(1, 1, 0, 0);
  m.on_failed(1, 1, 0, 0);
  const FleetMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.jobs_failed, 1);
  EXPECT_EQ(s.devices[0].jobs_failed, 0);
  EXPECT_EQ(s.devices[1].jobs_failed, 1);

  const Json root = parse_json(m.json());
  EXPECT_DOUBLE_EQ(root.at("per_device").array[0].at("jobs_failed").number, 0.0);
  EXPECT_DOUBLE_EQ(root.at("per_device").array[1].at("jobs_failed").number, 1.0);
  // The text report's device table carries a "failed" column.
  EXPECT_NE(m.report().find("failed"), std::string::npos);
}

TEST(FleetMetricsTest, HealthSectionGoldenKeysAndCounters) {
  // Golden key-set for the JSON health section: a fault on device 1,
  // one failover onto device 0, a same-device retry, and a degrade /
  // heal cycle.
  FleetMetrics m(2);
  m.on_submit(1, 1, "default", 1, 0);
  m.on_dispatch(1, 1, 0, 0);
  m.on_device_fault(1, 1, 0, /*reclaimed_blocks=*/3, 0);
  m.on_degraded(1, 1, 0, 0);
  m.on_failover(1, /*from=*/1, /*to=*/0, 1, 0);  // counts a retry AND a failover
  m.on_failover(1, /*from=*/0, /*to=*/0, 1, 0);  // same device: retry only
  m.on_device_fault(1, 0, 0, 0, 0);

  const Json root = parse_json(m.json());
  ASSERT_TRUE(root.has("health"));
  const Json& health = root.at("health");
  for (const char* key : {"device_faults", "failovers", "retries",
                          "degraded_devices", "buffers_reclaimed"}) {
    EXPECT_TRUE(health.has(key)) << "health section lost key " << key;
  }
  EXPECT_DOUBLE_EQ(health.at("device_faults").number, 2.0);
  EXPECT_DOUBLE_EQ(health.at("failovers").number, 1.0);
  EXPECT_DOUBLE_EQ(health.at("retries").number, 2.0);
  EXPECT_DOUBLE_EQ(health.at("degraded_devices").number, 1.0);
  EXPECT_DOUBLE_EQ(health.at("buffers_reclaimed").number, 3.0);

  const Json& dev1 = root.at("per_device").array[1];
  EXPECT_DOUBLE_EQ(dev1.at("faults").number, 1.0);
  EXPECT_TRUE(dev1.at("degraded").boolean);
  EXPECT_GE(dev1.at("degraded_us").number, 0.0);
  EXPECT_FALSE(root.at("per_device").array[0].at("degraded").boolean);

  // Healing stops the degraded clock and clears the flag.
  m.on_healed(1, 0);
  const FleetMetrics::Snapshot healed = m.snapshot();
  EXPECT_EQ(healed.degraded_devices, 0);
  EXPECT_FALSE(healed.devices[1].degraded);
  EXPECT_GE(healed.devices[1].degraded_us, 0.0);

  // The text report surfaces the same counters.
  const std::string report = m.report();
  EXPECT_NE(report.find("health:"), std::string::npos);
  EXPECT_NE(report.find("2 device fault(s)"), std::string::npos);
  EXPECT_NE(report.find("1 failover(s)"), std::string::npos);
}

TEST(FleetMetricsTest, SchedulingAndTenantSectionsGolden) {
  // Golden key-set for the multi-tenant SLO surfaces: two gold-tenant
  // jobs (one meets its deadline, one misses), a rate-limited shed for
  // the free tenant, one preemption and one steal.
  FleetMetrics m(2);

  m.on_submit(1, 0, "gold", 1, 0);
  m.on_dispatch(1, 0, 0, 0);
  JobResult hit = job(2, 500.0, 900.0);
  hit.tenant = "gold";
  hit.priority = Priority::High;
  hit.deadline_us = 1000.0;
  hit.slo_met = true;
  m.on_complete(0, hit, 500.0);

  m.on_submit(1, 0, "gold", 1, 0);
  m.on_dispatch(1, 0, 0, 0);
  m.on_preempted(1, /*from=*/0, /*to=*/1, 0, 1, 0);  // displaced to device 1's queue
  m.on_steal(1, /*from=*/1, /*to=*/0, 0, 0);         // ... and stolen right back
  m.on_dispatch(1, 0, 0, 0);
  JobResult miss = job(2, 500.0, 2500.0);
  miss.tenant = "gold";
  miss.priority = Priority::High;
  miss.deadline_us = 1000.0;
  miss.slo_met = false;
  m.on_complete(0, miss, 1000.0);

  m.on_shed(1, "free", ShedReason::RateLimited);

  const FleetMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.jobs_shed, 1);
  EXPECT_EQ(s.preemptions, 1);
  EXPECT_EQ(s.steals, 1);
  EXPECT_EQ(s.deadline_misses, 1);
  EXPECT_EQ(s.class_latency_hist[static_cast<std::size_t>(Priority::High)].count(), 2);

  // JSON: the scheduling section, the per-tenant ledger and the
  // per-class latency split must all survive renames.
  const Json root = parse_json(m.json());
  ASSERT_TRUE(root.has("scheduling"));
  const Json& sched = root.at("scheduling");
  for (const char* key : {"jobs_shed", "preemptions", "steals", "deadline_misses"}) {
    EXPECT_TRUE(sched.has(key)) << "scheduling section lost key " << key;
  }
  EXPECT_DOUBLE_EQ(sched.at("jobs_shed").number, 1.0);
  EXPECT_DOUBLE_EQ(sched.at("deadline_misses").number, 1.0);

  ASSERT_TRUE(root.has("tenants"));
  bool saw_gold = false;
  bool saw_free = false;
  for (const Json& t : root.at("tenants").array) {
    for (const char* key :
         {"tenant", "submitted", "completed", "shed", "slo_jobs", "slo_met", "slo_attainment"}) {
      EXPECT_TRUE(t.has(key)) << "tenant entry lost key " << key;
    }
    if (t.at("tenant").string == "gold") {
      saw_gold = true;
      EXPECT_DOUBLE_EQ(t.at("slo_jobs").number, 2.0);
      EXPECT_DOUBLE_EQ(t.at("slo_met").number, 1.0);
      EXPECT_DOUBLE_EQ(t.at("slo_attainment").number, 0.5);
    }
    if (t.at("tenant").string == "free") {
      saw_free = true;
      EXPECT_DOUBLE_EQ(t.at("shed").number, 1.0);
    }
  }
  EXPECT_TRUE(saw_gold);
  EXPECT_TRUE(saw_free);

  ASSERT_TRUE(root.has("latency_by_class"));
  const Json& by_class = root.at("latency_by_class");
  for (const char* cls : {"high", "normal", "low"}) {
    EXPECT_TRUE(by_class.has(cls)) << "latency_by_class lost class " << cls;
  }
  EXPECT_DOUBLE_EQ(by_class.at("high").at("count").number, 2.0);

  // Text report: the scheduling line and the tenant table.
  const std::string report = m.report();
  EXPECT_NE(report.find("scheduling:"), std::string::npos);
  EXPECT_NE(report.find("1 shed, 1 preemption(s), 1 steal(s), 1 deadline miss(es)"),
            std::string::npos);
  EXPECT_NE(report.find("tenants:"), std::string::npos);
  EXPECT_NE(report.find("gold"), std::string::npos);
  EXPECT_NE(report.find("(50.0%)"), std::string::npos);

  // Prometheus: counters, the per-tenant gauge and the labeled
  // per-class histogram series.
  const std::string prom = m.prometheus();
  for (const char* needle :
       {"saclo_jobs_shed_total 1", "saclo_preemptions_total 1", "saclo_steals_total 1",
        "saclo_deadline_misses_total 1", "saclo_tenant_slo_attainment{tenant=\"gold\"}",
        "saclo_tenant_jobs_shed_total{tenant=\"free\"} 1",
        "saclo_class_latency_us_count{class=\"high\"} 2"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << "prometheus lost " << needle;
  }
}

TEST(FleetMetricsTest, AutoscaleSectionGolden) {
  // Golden key-set for the elastic-fleet surfaces: a 3-slot fleet that
  // starts with slot 2 inactive, scales it up, re-homes one queued and
  // one running job off device 1, and drains device 1 away.
  FleetMetrics m(3);
  m.set_active(2, false);

  m.on_submit(1, 0, "default", 1, 0);
  m.on_submit(1, 1, "default", 1, 0);
  m.on_submit(1, 1, "default", 1, 0);

  m.set_active(2, true);
  m.on_scale_up(2, 3, 0);

  // Drain device 1: the queued job re-homes through the scale-down
  // path (queued=true moves the queue-depth gauge)...
  m.on_drain_started(1, /*rehomed=*/1, 0);
  m.on_rehomed(1, 0);
  // ...and its running job stops at the frame gate and re-homes with
  // queued=false (it had already left the queue gauge at dispatch).
  m.on_dispatch(1, 1, 0, 0);
  m.on_rehomed(1, 2, /*queued=*/false);
  m.on_drain_complete(1, 0, 2, 0);
  m.set_active(1, false);

  CachingDeviceAllocator::Stats alloc;
  alloc.cap_evictions = 5;
  m.set_allocator_stats(0, alloc);

  const FleetMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.scale_ups, 1);
  EXPECT_EQ(s.scale_downs, 1);
  EXPECT_EQ(s.jobs_rehomed, 2);
  EXPECT_EQ(s.active_devices, 2);  // 0 and 2
  EXPECT_TRUE(s.devices[0].active);
  EXPECT_FALSE(s.devices[1].active);
  EXPECT_EQ(s.alloc_cap_evictions, 5);
  EXPECT_GT(s.device_seconds, 0.0);
  // The queue gauges moved with the re-homes: device 1 holds nothing.
  EXPECT_EQ(s.devices[1].queue_depth, 0);
  EXPECT_EQ(s.devices[1].running, 0);
  EXPECT_EQ(s.devices[0].queue_depth, 2);
  EXPECT_EQ(s.devices[2].queue_depth, 1);

  // JSON: the autoscale section and the per-device activity fields.
  const Json root = parse_json(m.json());
  ASSERT_TRUE(root.has("autoscale"));
  const Json& a = root.at("autoscale");
  for (const char* key : {"scale_ups", "scale_downs", "jobs_rehomed", "active_devices",
                          "device_seconds", "alloc_cap_evictions"}) {
    EXPECT_TRUE(a.has(key)) << "autoscale section lost key " << key;
  }
  EXPECT_DOUBLE_EQ(a.at("scale_ups").number, 1.0);
  EXPECT_DOUBLE_EQ(a.at("jobs_rehomed").number, 2.0);
  EXPECT_DOUBLE_EQ(a.at("alloc_cap_evictions").number, 5.0);
  bool saw_inactive = false;
  for (const Json& d : root.at("per_device").array) {
    EXPECT_TRUE(d.has("active"));
    EXPECT_TRUE(d.has("active_us"));
    if (d.at("device").number == 1.0) {
      saw_inactive = true;
      EXPECT_FALSE(d.at("active").boolean);
    }
    if (d.has("allocator")) {
      EXPECT_TRUE(d.at("allocator").has("cap_evictions"))
          << "allocator object lost cap_evictions";
    }
  }
  EXPECT_TRUE(saw_inactive);

  // Text report: the autoscale line.
  const std::string report = m.report();
  EXPECT_NE(report.find("autoscale:"), std::string::npos);
  EXPECT_NE(report.find("2/3 active, 1 scale-up(s), 1 scale-down(s), 2 job(s) re-homed"),
            std::string::npos);

  // Prometheus: the elastic-fleet series.
  const std::string prom = m.prometheus();
  for (const char* needle :
       {"saclo_scale_ups_total 1", "saclo_scale_downs_total 1", "saclo_jobs_rehomed_total 2",
        "saclo_active_devices 2", "saclo_device_seconds_total",
        "saclo_alloc_cap_evictions_total 5"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << "prometheus lost " << needle;
  }
}

TEST(PromEscapeTest, EscapesLabelValueMetacharacters) {
  EXPECT_EQ(prom_escape_label_value("plain-tenant"), "plain-tenant");
  EXPECT_EQ(prom_escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(prom_escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape_label_value("a\nb"), "a\\nb");
  EXPECT_EQ(prom_escape_label_value("\\\"\n"), "\\\\\\\"\\n");
}

TEST(FleetMetricsTest, HostileTenantNameCannotBreakTheExposition) {
  // A tenant id is caller-controlled text that ends up inside label
  // quotes; quotes/backslashes/newlines must come out escaped, never
  // raw (a raw newline would split the series into a bogus line).
  FleetMetrics m(1);
  m.on_shed(1, "evil\"t\\en\nant", ShedReason::RateLimited);
  const std::string prom = m.prometheus();
  EXPECT_NE(prom.find("tenant=\"evil\\\"t\\\\en\\nant\""), std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("evil\"t"), std::string::npos) << "raw quote leaked";
  // The JSON export shares the escape set, so it must still parse.
  const Json root = parse_json(m.json());
  ASSERT_TRUE(root.is_object());
  ASSERT_FALSE(root.at("tenants").array.empty());
}

TEST(FleetMetricsTest, BuildInfoGaugeCarriesIdentityLabels) {
  FleetMetrics m(1);
  // Without identity set: no constant gauge (a bare saclo_build_info 1
  // with empty labels would be noise).
  EXPECT_EQ(m.prometheus().find("saclo_build_info"), std::string::npos);
  m.set_build_info("abc1234", "sim,host");
  const std::string prom = m.prometheus();
  EXPECT_NE(prom.find("saclo_build_info{sha=\"abc1234\",backend_opts=\"sim,host\"} 1"),
            std::string::npos)
      << prom;
  const FleetMetrics::Snapshot snap = m.snapshot();
  EXPECT_EQ(snap.build_sha, "abc1234");
  EXPECT_EQ(snap.build_backend_opts, "sim,host");
}

TEST(FleetMetricsTest, EventsDroppedAndActiveAlertsSurface) {
  FleetMetrics m(1);
  std::string prom = m.prometheus();
  EXPECT_NE(prom.find("saclo_events_dropped_total 0"), std::string::npos);
  EXPECT_NE(prom.find("saclo_alerts_active 0"), std::string::npos);
  // Drops are read from the attached log at snapshot time.
  obs::EventLog log(1);
  obs::TraceClock clock;
  m.attach_event_log(&log, &clock, 0);
  for (int frame = 0; frame < 18; ++frame) m.on_frame_done(1, 0, 0, frame, 0);
  m.on_alerts({}, 2);
  prom = m.prometheus();
  EXPECT_NE(prom.find("saclo_events_dropped_total 17"), std::string::npos);
  EXPECT_NE(prom.find("saclo_alerts_active 2"), std::string::npos);
}

TEST(FleetMetricsTest, ReportMentionsEveryDevice) {
  FleetMetrics m(3);
  const std::string report = m.report();
  EXPECT_NE(report.find("gpu0"), std::string::npos);
  EXPECT_NE(report.find("gpu1"), std::string::npos);
  EXPECT_NE(report.find("gpu2"), std::string::npos);
  EXPECT_NE(report.find("throughput"), std::string::npos);
}


TEST(FleetMetricsTest, ControlBytesInTenantKeepTheJsonStrict) {
  // Tab, carriage return and a raw 0x01 must leave as JSON escapes:
  // a strict parser rejects raw control bytes inside strings.
  const std::string hostile = "ev\til\r\x01";
  FleetMetrics m(1);
  m.on_shed(1, hostile, ShedReason::RateLimited);
  const Json root = parse_json(m.json());
  ASSERT_EQ(root.at("tenants").array.size(), 1u);
  EXPECT_EQ(root.at("tenants").array[0].at("tenant").string, hostile);
}

}  // namespace
}  // namespace saclo::serve
