// Pins the four exports of the serving telemetry — the Prometheus
// exposition, the JSON export, the text report and the event JSONL —
// for one scripted sequence of transitions that reaches every event
// type and every fleet counter on two tenants: submissions, a steal,
// faults with a failover and a same-device retry, retry exhaustion, a
// degrade/heal cycle, a batch, a preemption, sheds of both reasons, a
// deadline miss, a scale-up, a drain that re-homes a queued and a
// running job, alerts, and a full event ring. Only the fields that
// depend on wall time are masked: degraded_us, active_us,
// device_seconds and t_real_us.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "obs/alerts.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"
#include "serve/metrics.hpp"
#include "support/mini_json.hpp"

namespace saclo::serve {
namespace {

using obs::EventType;
using saclo::testsupport::Json;
using saclo::testsupport::parse_json;

constexpr std::size_t kEventCapacity = 58;  // the script's last 4 events are dropped

JobResult done(std::uint64_t id, int device, int attempts, const char* tenant, Priority priority,
               int frames, double sim_us, double latency_us, double deadline_us = 0) {
  JobResult r;
  r.id = id;
  r.device = device;
  r.attempts = attempts;
  r.frames = frames;
  r.sim_wall_us = sim_us;
  r.latency_us = latency_us;
  r.tenant = tenant;
  r.priority = priority;
  r.deadline_us = deadline_us;
  r.slo_met = deadline_us <= 0 || latency_us <= deadline_us;
  return r;
}

/// The fleet under script, its event log attached.
struct ScriptedFleet {
  obs::EventLog log{kEventCapacity};
  obs::TraceClock clock;
  FleetMetrics m{3};
  ScriptedFleet() { m.attach_event_log(&log, &clock, 0); }
};

void run_script(ScriptedFleet& f) {
  f.m.set_build_info("abc1234", "sim,host");
  f.m.set_active(2, false);  // a spare elastic slot

  // Job 1 (gold) runs on device 0 and meets its deadline.
  f.m.on_submit(1, 0, "gold", 2, 480.0);
  f.m.on_dispatch(1, 0, 0, 0.0);
  f.m.on_frame_done(1, 0, 0, 0, 250.0);
  f.m.on_frame_done(1, 0, 0, 1, 500.0);
  f.m.on_complete(0, done(1, 0, 0, "gold", Priority::High, 2, 500.0, 900.0, 1000.0), 500.0);

  // Jobs 2 and 3 (free) queue on device 1; idle device 0 steals job 3.
  f.m.on_submit(2, 1, "free", 4, 960.0);
  f.m.on_submit(3, 1, "free", 2, 480.0);
  f.m.on_steal(3, 1, 0, 0, 500.0);
  f.m.on_dispatch(2, 1, 0, 0.0);
  f.m.on_dispatch(3, 0, 0, 500.0);

  // Job 2 faults on device 1, which degrades; it fails over to device 0.
  f.m.on_device_fault(2, 1, 0, 3, 120.5);
  f.m.on_degraded(2, 1, 0, 120.0);
  f.m.on_failover(2, 1, 0, 1, 120.0);

  // Job 3 completes on device 0 past its deadline.
  f.m.on_frame_done(3, 0, 0, 0, 750.0);
  f.m.on_complete(0, done(3, 0, 0, "free", Priority::Low, 2, 500.0, 2500.0, 1000.0), 1000.0);

  // Job 2 faults again on device 0, retries there, and exhausts its budget.
  f.m.on_dispatch(2, 0, 1, 1000.0);
  f.m.on_device_fault(2, 0, 1, 0, 1100.0);
  f.m.on_failover(2, 0, 0, 2, 1100.0);
  f.m.on_dispatch(2, 0, 2, 1100.0);
  f.m.on_device_fault(2, 0, 2, 1, 1150.0);
  f.m.on_failed(2, 0, 2, 1150.0);

  // Device 1's cooldown elapses on the next placement.
  f.m.on_healed(1, 120.0);

  // Jobs 4 and 5 (gold) coalesce into one batch on device 1.
  f.m.on_submit(4, 1, "gold", 2, 480.0);
  f.m.on_submit(5, 1, "gold", 2, 480.0);
  f.m.on_batch(4, 1, 2, 120.0);
  f.m.on_dispatch(4, 1, 0, 120.0);
  f.m.on_complete(1, done(4, 1, 0, "gold", Priority::High, 2, 450.0, 1200.0, 2000.0), 570.0);
  f.m.on_dispatch(5, 1, 0, 570.0);
  f.m.on_complete(1, done(5, 1, 0, "gold", Priority::High, 2, 450.0, 1600.0, 2000.0), 1020.0);

  // Job 6 (free) is preempted on device 0 after one frame and resumes
  // on device 1.
  f.m.on_submit(6, 0, "free", 3, 720.0);
  f.m.on_dispatch(6, 0, 0, 1150.0);
  f.m.on_frame_done(6, 0, 0, 0, 1390.0);
  f.m.on_preempted(6, 0, 1, 0, 1, 1390.0);
  f.m.on_dispatch(6, 1, 0, 1020.0);
  f.m.on_complete(1, done(6, 1, 0, "free", Priority::Normal, 3, 480.0, 3300.0), 1500.0);

  // Admission sheds one submission of each tenant.
  f.m.on_shed(7, "free", ShedReason::RateLimited);
  f.m.on_shed(8, "gold", ShedReason::QueueFull);

  // The autoscaler activates slot 2, then drains device 1: queued job
  // 9 re-homes onto slot 2, running job 10 onto device 0.
  f.m.on_scale_up(2, 3, 0.0);
  f.m.on_submit(9, 1, "gold", 2, 480.0);
  f.m.on_submit(10, 1, "free", 4, 960.0);
  f.m.on_dispatch(10, 1, 0, 1500.0);
  f.m.on_drain_started(1, 1, 1500.0);
  f.m.on_rehomed(1, 2);
  f.m.on_rehomed(1, 0, /*queued=*/false);
  f.m.on_drain_complete(1, 0, 2, 1740.0);
  f.m.on_dispatch(9, 2, 0, 0.0);
  f.m.on_complete(2, done(9, 2, 0, "gold", Priority::High, 2, 480.0, 4000.0, 5000.0), 480.0);

  // The alert engine raises two alerts and clears one.
  const auto alert = [](obs::AlertKind kind, bool raised) {
    obs::AlertTransition t;
    t.kind = kind;
    t.raised = raised;
    return t;
  };
  f.m.on_alerts({alert(obs::AlertKind::SloBurnRate, true)}, 1);
  f.m.on_alerts({alert(obs::AlertKind::QueueSaturation, true)}, 2);
  f.m.on_alerts({alert(obs::AlertKind::QueueSaturation, false)}, 1);

  // Job 10 finishes on device 0; the ring is full by now, so its
  // dispatch, its last frames and its completion are counted as dropped.
  f.m.on_dispatch(10, 0, 0, 1390.0);
  f.m.on_frame_done(10, 0, 0, 2, 1630.0);
  f.m.on_frame_done(10, 0, 0, 3, 1870.0);
  f.m.on_complete(0, done(10, 0, 0, "free", Priority::Normal, 4, 480.0, 5200.0), 1870.0);

  CachingDeviceAllocator::Stats alloc;
  alloc.hits = 12;
  alloc.misses = 4;
  alloc.frees = 14;
  alloc.live_blocks = 2;
  alloc.cached_blocks = 3;
  alloc.cached_bytes = 6144;
  alloc.cap_evictions = 5;
  alloc.pool_peak_bytes = 16384;
  f.m.set_allocator_stats(0, alloc);
  alloc.cap_evictions = 2;
  f.m.set_allocator_stats(2, alloc);
  f.m.set_elapsed_real_us(50000.0);
}

/// The exposition's lines as a sorted set, device_seconds masked.
std::set<std::string> prom_lines(const std::string& text) {
  std::set<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("saclo_device_seconds_total ", 0) == 0) line = "saclo_device_seconds_total *";
    lines.insert(line);
  }
  return lines;
}

/// Parsed JSON in one canonical text: keys sorted, numbers in full
/// precision, the wall-time keys dropped.
void canonical(const Json& v, std::string& out) {
  switch (v.kind) {
    case Json::Kind::Null:
      out += "null";
      return;
    case Json::Kind::Bool:
      out += v.boolean ? "true" : "false";
      return;
    case Json::Kind::Number: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.number);
      out += buf;
      return;
    }
    case Json::Kind::String:
      out += "\"" + v.string + "\"";
      return;
    case Json::Kind::Array:
      out += "[";
      for (const Json& e : v.array) {
        canonical(e, out);
        out += ",";
      }
      out += "]";
      return;
    case Json::Kind::Object:
      out += "{";
      for (const auto& [key, e] : v.object) {
        if (key == "degraded_us" || key == "active_us" || key == "device_seconds") continue;
        out += "\"" + key + "\":";
        canonical(e, out);
        out += ",";
      }
      out += "}";
      return;
  }
}

std::string canonical_json(const std::string& text) {
  std::string out;
  canonical(parse_json(text), out);
  return out;
}

std::string mask_report(const std::string& report) {
  return std::regex_replace(report, std::regex("[0-9.]+ device-seconds"), "* device-seconds");
}

std::string mask_events(const std::string& jsonl) {
  return std::regex_replace(jsonl, std::regex("\"t_real_us\":[0-9.]+"), "\"t_real_us\":*");
}

const char* const kPrometheus =
    R"(# HELP saclo_build_info Build identity (constant 1; the labels carry the data).
# TYPE saclo_build_info gauge
saclo_build_info{sha="abc1234",backend_opts="sim,host"} 1
# HELP saclo_jobs_submitted_total Jobs accepted by the runtime.
# TYPE saclo_jobs_submitted_total counter
saclo_jobs_submitted_total 10
# HELP saclo_jobs_completed_total Jobs whose future resolved.
# TYPE saclo_jobs_completed_total counter
saclo_jobs_completed_total 7
# HELP saclo_jobs_failed_total Jobs that exhausted retries (future carries an exception).
# TYPE saclo_jobs_failed_total counter
saclo_jobs_failed_total 1
# HELP saclo_frames_completed_total Frames across completed jobs.
# TYPE saclo_frames_completed_total counter
saclo_frames_completed_total 17
# HELP saclo_device_faults_total Injected device faults observed fleet-wide.
# TYPE saclo_device_faults_total counter
saclo_device_faults_total 3
# HELP saclo_failovers_total Retries that moved device.
# TYPE saclo_failovers_total counter
saclo_failovers_total 1
# HELP saclo_retries_total Faulted jobs re-enqueued.
# TYPE saclo_retries_total counter
saclo_retries_total 2
# HELP saclo_buffers_reclaimed_total Allocator blocks swept back after faults.
# TYPE saclo_buffers_reclaimed_total counter
saclo_buffers_reclaimed_total 4
# HELP saclo_degraded_devices Devices currently marked degraded.
# TYPE saclo_degraded_devices gauge
saclo_degraded_devices 0
# HELP saclo_batches_formed_total Dispatches that coalesced two or more jobs.
# TYPE saclo_batches_formed_total counter
saclo_batches_formed_total 1
# HELP saclo_jobs_batched_total Jobs that rode in a coalesced batch.
# TYPE saclo_jobs_batched_total counter
saclo_jobs_batched_total 2
# HELP saclo_jobs_shed_total Submissions refused by admission control or load shedding.
# TYPE saclo_jobs_shed_total counter
saclo_jobs_shed_total 2
# HELP saclo_preemptions_total In-flight jobs displaced at a frame boundary.
# TYPE saclo_preemptions_total counter
saclo_preemptions_total 1
# HELP saclo_steals_total Queued jobs moved to an idle dispatcher.
# TYPE saclo_steals_total counter
saclo_steals_total 1
# HELP saclo_deadline_misses_total Jobs completed past their SLO deadline.
# TYPE saclo_deadline_misses_total counter
saclo_deadline_misses_total 1
# HELP saclo_scale_ups_total Devices activated by the autoscaler.
# TYPE saclo_scale_ups_total counter
saclo_scale_ups_total 1
# HELP saclo_scale_downs_total Graceful device drains started.
# TYPE saclo_scale_downs_total counter
saclo_scale_downs_total 1
# HELP saclo_jobs_rehomed_total Queued jobs moved off draining devices.
# TYPE saclo_jobs_rehomed_total counter
saclo_jobs_rehomed_total 2
# HELP saclo_active_devices Devices currently placement-eligible.
# TYPE saclo_active_devices gauge
saclo_active_devices 2
# HELP saclo_device_seconds_total Sum over devices of real seconds spent active.
# TYPE saclo_device_seconds_total counter
saclo_device_seconds_total *
# HELP saclo_alloc_cap_evictions_total Allocator blocks evicted by the per-size-class cache cap, fleet-wide.
# TYPE saclo_alloc_cap_evictions_total counter
saclo_alloc_cap_evictions_total 7
# HELP saclo_sim_makespan_us Fleet simulated makespan (max device clock), microseconds.
# TYPE saclo_sim_makespan_us gauge
saclo_sim_makespan_us 1870.000
# HELP saclo_throughput_fps_sim Frames per second of simulated device time.
# TYPE saclo_throughput_fps_sim gauge
saclo_throughput_fps_sim 9090.909
# HELP saclo_throughput_fps_real Frames per second of real wall clock.
# TYPE saclo_throughput_fps_real gauge
saclo_throughput_fps_real 340.000
# HELP saclo_events_dropped_total Structured events rejected because the event ring was full.
# TYPE saclo_events_dropped_total counter
saclo_events_dropped_total 4
# HELP saclo_alerts_active Alerts currently firing.
# TYPE saclo_alerts_active gauge
saclo_alerts_active 1
# HELP saclo_device_jobs_total Jobs completed per device.
# TYPE saclo_device_jobs_total counter
saclo_device_jobs_total{device="0"} 3
saclo_device_jobs_total{device="1"} 3
saclo_device_jobs_total{device="2"} 1
# HELP saclo_device_utilization Busy share of the fleet makespan per device.
# TYPE saclo_device_utilization gauge
saclo_device_utilization{device="0"} 0.7914
saclo_device_utilization{device="1"} 0.7380
saclo_device_utilization{device="2"} 0.2567
# HELP saclo_tenant_slo_attainment Share of a tenant's deadline jobs completed within their SLO.
# TYPE saclo_tenant_slo_attainment gauge
saclo_tenant_slo_attainment{tenant="free"} 0.0000
saclo_tenant_slo_attainment{tenant="gold"} 1.0000
# HELP saclo_tenant_jobs_shed_total Submissions shed per tenant.
# TYPE saclo_tenant_jobs_shed_total counter
saclo_tenant_jobs_shed_total{tenant="free"} 1
saclo_tenant_jobs_shed_total{tenant="gold"} 1
# HELP saclo_job_latency_us Real end-to-end job latency (submit to completion).
# TYPE saclo_job_latency_us histogram
saclo_job_latency_us_bucket{le="1"} 0
saclo_job_latency_us_bucket{le="1.189207115002721"} 0
saclo_job_latency_us_bucket{le="1.4142135623730951"} 0
saclo_job_latency_us_bucket{le="1.681792830507429"} 0
saclo_job_latency_us_bucket{le="2"} 0
saclo_job_latency_us_bucket{le="2.378414230005442"} 0
saclo_job_latency_us_bucket{le="2.8284271247461903"} 0
saclo_job_latency_us_bucket{le="3.363585661014858"} 0
saclo_job_latency_us_bucket{le="4"} 0
saclo_job_latency_us_bucket{le="4.756828460010884"} 0
saclo_job_latency_us_bucket{le="5.656854249492381"} 0
saclo_job_latency_us_bucket{le="6.727171322029716"} 0
saclo_job_latency_us_bucket{le="8"} 0
saclo_job_latency_us_bucket{le="9.513656920021768"} 0
saclo_job_latency_us_bucket{le="11.313708498984761"} 0
saclo_job_latency_us_bucket{le="13.454342644059432"} 0
saclo_job_latency_us_bucket{le="16"} 0
saclo_job_latency_us_bucket{le="19.027313840043536"} 0
saclo_job_latency_us_bucket{le="22.627416997969522"} 0
saclo_job_latency_us_bucket{le="26.908685288118864"} 0
saclo_job_latency_us_bucket{le="32"} 0
saclo_job_latency_us_bucket{le="38.05462768008707"} 0
saclo_job_latency_us_bucket{le="45.254833995939045"} 0
saclo_job_latency_us_bucket{le="53.81737057623773"} 0
saclo_job_latency_us_bucket{le="64"} 0
saclo_job_latency_us_bucket{le="76.10925536017415"} 0
saclo_job_latency_us_bucket{le="90.50966799187809"} 0
saclo_job_latency_us_bucket{le="107.63474115247546"} 0
saclo_job_latency_us_bucket{le="128"} 0
saclo_job_latency_us_bucket{le="152.2185107203483"} 0
saclo_job_latency_us_bucket{le="181.01933598375618"} 0
saclo_job_latency_us_bucket{le="215.2694823049509"} 0
saclo_job_latency_us_bucket{le="256"} 0
saclo_job_latency_us_bucket{le="304.4370214406966"} 0
saclo_job_latency_us_bucket{le="362.03867196751236"} 0
saclo_job_latency_us_bucket{le="430.5389646099018"} 0
saclo_job_latency_us_bucket{le="512"} 0
saclo_job_latency_us_bucket{le="608.8740428813932"} 0
saclo_job_latency_us_bucket{le="724.0773439350247"} 0
saclo_job_latency_us_bucket{le="861.0779292198037"} 0
saclo_job_latency_us_bucket{le="1024"} 1
saclo_job_latency_us_bucket{le="1217.7480857627863"} 2
saclo_job_latency_us_bucket{le="1448.1546878700494"} 2
saclo_job_latency_us_bucket{le="1722.1558584396073"} 3
saclo_job_latency_us_bucket{le="2048"} 3
saclo_job_latency_us_bucket{le="2435.4961715255727"} 3
saclo_job_latency_us_bucket{le="2896.309375740099"} 4
saclo_job_latency_us_bucket{le="3444.3117168792146"} 5
saclo_job_latency_us_bucket{le="4096"} 6
saclo_job_latency_us_bucket{le="4870.992343051145"} 6
saclo_job_latency_us_bucket{le="5792.618751480198"} 7
saclo_job_latency_us_bucket{le="+Inf"} 7
saclo_job_latency_us_sum 18700.000
saclo_job_latency_us_count 7
# HELP saclo_job_sim_us Simulated device time per completed job.
# TYPE saclo_job_sim_us histogram
saclo_job_sim_us_bucket{le="1"} 0
saclo_job_sim_us_bucket{le="1.189207115002721"} 0
saclo_job_sim_us_bucket{le="1.4142135623730951"} 0
saclo_job_sim_us_bucket{le="1.681792830507429"} 0
saclo_job_sim_us_bucket{le="2"} 0
saclo_job_sim_us_bucket{le="2.378414230005442"} 0
saclo_job_sim_us_bucket{le="2.8284271247461903"} 0
saclo_job_sim_us_bucket{le="3.363585661014858"} 0
saclo_job_sim_us_bucket{le="4"} 0
saclo_job_sim_us_bucket{le="4.756828460010884"} 0
saclo_job_sim_us_bucket{le="5.656854249492381"} 0
saclo_job_sim_us_bucket{le="6.727171322029716"} 0
saclo_job_sim_us_bucket{le="8"} 0
saclo_job_sim_us_bucket{le="9.513656920021768"} 0
saclo_job_sim_us_bucket{le="11.313708498984761"} 0
saclo_job_sim_us_bucket{le="13.454342644059432"} 0
saclo_job_sim_us_bucket{le="16"} 0
saclo_job_sim_us_bucket{le="19.027313840043536"} 0
saclo_job_sim_us_bucket{le="22.627416997969522"} 0
saclo_job_sim_us_bucket{le="26.908685288118864"} 0
saclo_job_sim_us_bucket{le="32"} 0
saclo_job_sim_us_bucket{le="38.05462768008707"} 0
saclo_job_sim_us_bucket{le="45.254833995939045"} 0
saclo_job_sim_us_bucket{le="53.81737057623773"} 0
saclo_job_sim_us_bucket{le="64"} 0
saclo_job_sim_us_bucket{le="76.10925536017415"} 0
saclo_job_sim_us_bucket{le="90.50966799187809"} 0
saclo_job_sim_us_bucket{le="107.63474115247546"} 0
saclo_job_sim_us_bucket{le="128"} 0
saclo_job_sim_us_bucket{le="152.2185107203483"} 0
saclo_job_sim_us_bucket{le="181.01933598375618"} 0
saclo_job_sim_us_bucket{le="215.2694823049509"} 0
saclo_job_sim_us_bucket{le="256"} 0
saclo_job_sim_us_bucket{le="304.4370214406966"} 0
saclo_job_sim_us_bucket{le="362.03867196751236"} 0
saclo_job_sim_us_bucket{le="430.5389646099018"} 0
saclo_job_sim_us_bucket{le="512"} 7
saclo_job_sim_us_bucket{le="+Inf"} 7
saclo_job_sim_us_sum 3340.000
saclo_job_sim_us_count 7
# HELP saclo_batch_size Sizes of coalesced batches (>= 2).
# TYPE saclo_batch_size histogram
saclo_batch_size_bucket{le="1"} 0
saclo_batch_size_bucket{le="1.189207115002721"} 0
saclo_batch_size_bucket{le="1.4142135623730951"} 0
saclo_batch_size_bucket{le="1.681792830507429"} 0
saclo_batch_size_bucket{le="2"} 1
saclo_batch_size_bucket{le="+Inf"} 1
saclo_batch_size_sum 2.000
saclo_batch_size_count 1
# HELP saclo_class_latency_us Real end-to-end job latency split by priority class.
# TYPE saclo_class_latency_us histogram
saclo_class_latency_us_bucket{class="high",le="1"} 0
saclo_class_latency_us_bucket{class="high",le="1.189207115002721"} 0
saclo_class_latency_us_bucket{class="high",le="1.4142135623730951"} 0
saclo_class_latency_us_bucket{class="high",le="1.681792830507429"} 0
saclo_class_latency_us_bucket{class="high",le="2"} 0
saclo_class_latency_us_bucket{class="high",le="2.378414230005442"} 0
saclo_class_latency_us_bucket{class="high",le="2.8284271247461903"} 0
saclo_class_latency_us_bucket{class="high",le="3.363585661014858"} 0
saclo_class_latency_us_bucket{class="high",le="4"} 0
saclo_class_latency_us_bucket{class="high",le="4.756828460010884"} 0
saclo_class_latency_us_bucket{class="high",le="5.656854249492381"} 0
saclo_class_latency_us_bucket{class="high",le="6.727171322029716"} 0
saclo_class_latency_us_bucket{class="high",le="8"} 0
saclo_class_latency_us_bucket{class="high",le="9.513656920021768"} 0
saclo_class_latency_us_bucket{class="high",le="11.313708498984761"} 0
saclo_class_latency_us_bucket{class="high",le="13.454342644059432"} 0
saclo_class_latency_us_bucket{class="high",le="16"} 0
saclo_class_latency_us_bucket{class="high",le="19.027313840043536"} 0
saclo_class_latency_us_bucket{class="high",le="22.627416997969522"} 0
saclo_class_latency_us_bucket{class="high",le="26.908685288118864"} 0
saclo_class_latency_us_bucket{class="high",le="32"} 0
saclo_class_latency_us_bucket{class="high",le="38.05462768008707"} 0
saclo_class_latency_us_bucket{class="high",le="45.254833995939045"} 0
saclo_class_latency_us_bucket{class="high",le="53.81737057623773"} 0
saclo_class_latency_us_bucket{class="high",le="64"} 0
saclo_class_latency_us_bucket{class="high",le="76.10925536017415"} 0
saclo_class_latency_us_bucket{class="high",le="90.50966799187809"} 0
saclo_class_latency_us_bucket{class="high",le="107.63474115247546"} 0
saclo_class_latency_us_bucket{class="high",le="128"} 0
saclo_class_latency_us_bucket{class="high",le="152.2185107203483"} 0
saclo_class_latency_us_bucket{class="high",le="181.01933598375618"} 0
saclo_class_latency_us_bucket{class="high",le="215.2694823049509"} 0
saclo_class_latency_us_bucket{class="high",le="256"} 0
saclo_class_latency_us_bucket{class="high",le="304.4370214406966"} 0
saclo_class_latency_us_bucket{class="high",le="362.03867196751236"} 0
saclo_class_latency_us_bucket{class="high",le="430.5389646099018"} 0
saclo_class_latency_us_bucket{class="high",le="512"} 0
saclo_class_latency_us_bucket{class="high",le="608.8740428813932"} 0
saclo_class_latency_us_bucket{class="high",le="724.0773439350247"} 0
saclo_class_latency_us_bucket{class="high",le="861.0779292198037"} 0
saclo_class_latency_us_bucket{class="high",le="1024"} 1
saclo_class_latency_us_bucket{class="high",le="1217.7480857627863"} 2
saclo_class_latency_us_bucket{class="high",le="1448.1546878700494"} 2
saclo_class_latency_us_bucket{class="high",le="1722.1558584396073"} 3
saclo_class_latency_us_bucket{class="high",le="2048"} 3
saclo_class_latency_us_bucket{class="high",le="2435.4961715255727"} 3
saclo_class_latency_us_bucket{class="high",le="2896.309375740099"} 3
saclo_class_latency_us_bucket{class="high",le="3444.3117168792146"} 3
saclo_class_latency_us_bucket{class="high",le="4096"} 4
saclo_class_latency_us_bucket{class="high",le="+Inf"} 4
saclo_class_latency_us_sum{class="high"} 7700.000
saclo_class_latency_us_count{class="high"} 4
# HELP saclo_class_latency_us Real end-to-end job latency split by priority class.
# TYPE saclo_class_latency_us histogram
saclo_class_latency_us_bucket{class="normal",le="1"} 0
saclo_class_latency_us_bucket{class="normal",le="1.189207115002721"} 0
saclo_class_latency_us_bucket{class="normal",le="1.4142135623730951"} 0
saclo_class_latency_us_bucket{class="normal",le="1.681792830507429"} 0
saclo_class_latency_us_bucket{class="normal",le="2"} 0
saclo_class_latency_us_bucket{class="normal",le="2.378414230005442"} 0
saclo_class_latency_us_bucket{class="normal",le="2.8284271247461903"} 0
saclo_class_latency_us_bucket{class="normal",le="3.363585661014858"} 0
saclo_class_latency_us_bucket{class="normal",le="4"} 0
saclo_class_latency_us_bucket{class="normal",le="4.756828460010884"} 0
saclo_class_latency_us_bucket{class="normal",le="5.656854249492381"} 0
saclo_class_latency_us_bucket{class="normal",le="6.727171322029716"} 0
saclo_class_latency_us_bucket{class="normal",le="8"} 0
saclo_class_latency_us_bucket{class="normal",le="9.513656920021768"} 0
saclo_class_latency_us_bucket{class="normal",le="11.313708498984761"} 0
saclo_class_latency_us_bucket{class="normal",le="13.454342644059432"} 0
saclo_class_latency_us_bucket{class="normal",le="16"} 0
saclo_class_latency_us_bucket{class="normal",le="19.027313840043536"} 0
saclo_class_latency_us_bucket{class="normal",le="22.627416997969522"} 0
saclo_class_latency_us_bucket{class="normal",le="26.908685288118864"} 0
saclo_class_latency_us_bucket{class="normal",le="32"} 0
saclo_class_latency_us_bucket{class="normal",le="38.05462768008707"} 0
saclo_class_latency_us_bucket{class="normal",le="45.254833995939045"} 0
saclo_class_latency_us_bucket{class="normal",le="53.81737057623773"} 0
saclo_class_latency_us_bucket{class="normal",le="64"} 0
saclo_class_latency_us_bucket{class="normal",le="76.10925536017415"} 0
saclo_class_latency_us_bucket{class="normal",le="90.50966799187809"} 0
saclo_class_latency_us_bucket{class="normal",le="107.63474115247546"} 0
saclo_class_latency_us_bucket{class="normal",le="128"} 0
saclo_class_latency_us_bucket{class="normal",le="152.2185107203483"} 0
saclo_class_latency_us_bucket{class="normal",le="181.01933598375618"} 0
saclo_class_latency_us_bucket{class="normal",le="215.2694823049509"} 0
saclo_class_latency_us_bucket{class="normal",le="256"} 0
saclo_class_latency_us_bucket{class="normal",le="304.4370214406966"} 0
saclo_class_latency_us_bucket{class="normal",le="362.03867196751236"} 0
saclo_class_latency_us_bucket{class="normal",le="430.5389646099018"} 0
saclo_class_latency_us_bucket{class="normal",le="512"} 0
saclo_class_latency_us_bucket{class="normal",le="608.8740428813932"} 0
saclo_class_latency_us_bucket{class="normal",le="724.0773439350247"} 0
saclo_class_latency_us_bucket{class="normal",le="861.0779292198037"} 0
saclo_class_latency_us_bucket{class="normal",le="1024"} 0
saclo_class_latency_us_bucket{class="normal",le="1217.7480857627863"} 0
saclo_class_latency_us_bucket{class="normal",le="1448.1546878700494"} 0
saclo_class_latency_us_bucket{class="normal",le="1722.1558584396073"} 0
saclo_class_latency_us_bucket{class="normal",le="2048"} 0
saclo_class_latency_us_bucket{class="normal",le="2435.4961715255727"} 0
saclo_class_latency_us_bucket{class="normal",le="2896.309375740099"} 0
saclo_class_latency_us_bucket{class="normal",le="3444.3117168792146"} 1
saclo_class_latency_us_bucket{class="normal",le="4096"} 1
saclo_class_latency_us_bucket{class="normal",le="4870.992343051145"} 1
saclo_class_latency_us_bucket{class="normal",le="5792.618751480198"} 2
saclo_class_latency_us_bucket{class="normal",le="+Inf"} 2
saclo_class_latency_us_sum{class="normal"} 8500.000
saclo_class_latency_us_count{class="normal"} 2
# HELP saclo_class_latency_us Real end-to-end job latency split by priority class.
# TYPE saclo_class_latency_us histogram
saclo_class_latency_us_bucket{class="low",le="1"} 0
saclo_class_latency_us_bucket{class="low",le="1.189207115002721"} 0
saclo_class_latency_us_bucket{class="low",le="1.4142135623730951"} 0
saclo_class_latency_us_bucket{class="low",le="1.681792830507429"} 0
saclo_class_latency_us_bucket{class="low",le="2"} 0
saclo_class_latency_us_bucket{class="low",le="2.378414230005442"} 0
saclo_class_latency_us_bucket{class="low",le="2.8284271247461903"} 0
saclo_class_latency_us_bucket{class="low",le="3.363585661014858"} 0
saclo_class_latency_us_bucket{class="low",le="4"} 0
saclo_class_latency_us_bucket{class="low",le="4.756828460010884"} 0
saclo_class_latency_us_bucket{class="low",le="5.656854249492381"} 0
saclo_class_latency_us_bucket{class="low",le="6.727171322029716"} 0
saclo_class_latency_us_bucket{class="low",le="8"} 0
saclo_class_latency_us_bucket{class="low",le="9.513656920021768"} 0
saclo_class_latency_us_bucket{class="low",le="11.313708498984761"} 0
saclo_class_latency_us_bucket{class="low",le="13.454342644059432"} 0
saclo_class_latency_us_bucket{class="low",le="16"} 0
saclo_class_latency_us_bucket{class="low",le="19.027313840043536"} 0
saclo_class_latency_us_bucket{class="low",le="22.627416997969522"} 0
saclo_class_latency_us_bucket{class="low",le="26.908685288118864"} 0
saclo_class_latency_us_bucket{class="low",le="32"} 0
saclo_class_latency_us_bucket{class="low",le="38.05462768008707"} 0
saclo_class_latency_us_bucket{class="low",le="45.254833995939045"} 0
saclo_class_latency_us_bucket{class="low",le="53.81737057623773"} 0
saclo_class_latency_us_bucket{class="low",le="64"} 0
saclo_class_latency_us_bucket{class="low",le="76.10925536017415"} 0
saclo_class_latency_us_bucket{class="low",le="90.50966799187809"} 0
saclo_class_latency_us_bucket{class="low",le="107.63474115247546"} 0
saclo_class_latency_us_bucket{class="low",le="128"} 0
saclo_class_latency_us_bucket{class="low",le="152.2185107203483"} 0
saclo_class_latency_us_bucket{class="low",le="181.01933598375618"} 0
saclo_class_latency_us_bucket{class="low",le="215.2694823049509"} 0
saclo_class_latency_us_bucket{class="low",le="256"} 0
saclo_class_latency_us_bucket{class="low",le="304.4370214406966"} 0
saclo_class_latency_us_bucket{class="low",le="362.03867196751236"} 0
saclo_class_latency_us_bucket{class="low",le="430.5389646099018"} 0
saclo_class_latency_us_bucket{class="low",le="512"} 0
saclo_class_latency_us_bucket{class="low",le="608.8740428813932"} 0
saclo_class_latency_us_bucket{class="low",le="724.0773439350247"} 0
saclo_class_latency_us_bucket{class="low",le="861.0779292198037"} 0
saclo_class_latency_us_bucket{class="low",le="1024"} 0
saclo_class_latency_us_bucket{class="low",le="1217.7480857627863"} 0
saclo_class_latency_us_bucket{class="low",le="1448.1546878700494"} 0
saclo_class_latency_us_bucket{class="low",le="1722.1558584396073"} 0
saclo_class_latency_us_bucket{class="low",le="2048"} 0
saclo_class_latency_us_bucket{class="low",le="2435.4961715255727"} 0
saclo_class_latency_us_bucket{class="low",le="2896.309375740099"} 1
saclo_class_latency_us_bucket{class="low",le="+Inf"} 1
saclo_class_latency_us_sum{class="low"} 2500.000
saclo_class_latency_us_count{class="low"} 1
)";
const char* const kJson =
    R"({"devices":3,"jobs_submitted":10,"jobs_completed":7,"jobs_failed":1,"frames_completed":17,
"health":{"device_faults":3,"failovers":1,"retries":2,"degraded_devices":0,"buffers_reclaimed":4},"batching":{"batches_formed":1,"jobs_batched":2,"max_batch_size":2},"scheduling":{"jobs_shed":2,"preemptions":1,"steals":1,"deadline_misses":1},"autoscale":{"scale_ups":1,"scale_downs":1,"jobs_rehomed":2,"active_devices":2,"device_seconds":0.0,"alloc_cap_evictions":7},
"elapsed_real_us":50000.0,"sim_makespan_us":1870.000,"throughput_fps_sim":9090.909,"throughput_fps_real":340.000,"latency_real_us":{"p50":2665.9027736328358,"p95":4096,"p99":4096,"mean":2671.4,"max":5200.0},"sim_job_us":{"p50":475.000,"p99":496.000},
"tenants":[{"tenant":"free","submitted":5,"completed":3,"shed":1,"slo_jobs":1,"slo_met":0,"slo_attainment":0.0000},{"tenant":"gold","submitted":5,"completed":4,"shed":1,"slo_jobs":4,"slo_met":4,"slo_attainment":1.0000}],
"latency_by_class":{"high":{"count":4,"p50":1217.7480857627863,"p99":1722.1558584396073,"max":4000.0},"normal":{"count":2,"p50":3444.3117168792146,"p99":3444.3117168792146,"max":5200.0},"low":{"count":1,"p50":2500,"p99":2500,"max":2500.0}},"per_device":[
{"device":0,"jobs":3,"jobs_failed":1,"faults":2,"degraded":false,"degraded_us":0.0,"active":true,"active_us":0.0,"frames":8,"queue_depth":0,"max_queue_depth":1,"busy_sim_us":1480.000,"sim_clock_us":1870.000,"utilization":0.7914,"allocator":{"hits":12,"misses":4,"hit_rate":0.7500,"frees":14,"live_blocks":2,"cached_blocks":3,"cached_bytes":6144,"cap_evictions":5,"fragmentation":0.0000,"pool_peak_bytes":16384}},
{"device":1,"jobs":3,"jobs_failed":0,"faults":1,"degraded":false,"degraded_us":0.0,"active":false,"active_us":0.0,"frames":7,"queue_depth":0,"max_queue_depth":2,"busy_sim_us":1380.000,"sim_clock_us":1500.000,"utilization":0.7380},
{"device":2,"jobs":1,"jobs_failed":0,"faults":0,"degraded":false,"degraded_us":0.0,"active":true,"active_us":0.0,"frames":2,"queue_depth":0,"max_queue_depth":1,"busy_sim_us":480.000,"sim_clock_us":480.000,"utilization":0.2567,"allocator":{"hits":12,"misses":4,"hit_rate":0.7500,"frees":14,"live_blocks":2,"cached_blocks":3,"cached_bytes":6144,"cap_evictions":2,"fragmentation":0.0000,"pool_peak_bytes":16384}}]})";
const char* const kReport = R"(fleet: 3 device(s), 7/10 jobs done, 17 frames
throughput: 9090.9 frames/s simulated, 340.0 frames/s real
latency (real): p50 2.67ms  p95 4.10ms  p99 4.10ms  max 5.20ms
sim makespan 0.002s, sim job p50 0.47ms
health: 3 device fault(s), 1 failover(s), 2 retry(s), 1 failed job(s), 0 degraded device(s)
scheduling: 2 shed, 1 preemption(s), 1 steal(s), 1 deadline miss(es)
autoscale: 2/3 active, 1 scale-up(s), 1 scale-down(s), 2 job(s) re-homed, * device-seconds
tenants:
  free              3/5 done, 1 shed, slo 0/1 (0.0%)
  gold              4/5 done, 1 shed, slo 4/4 (100.0%)
batching: 1 batch(es), 2 jobs coalesced, max size 2
device     jobs  failed  frames   util  queue  maxq  faults   hit%  miss  peakMB
------------------------------------------------------------------------
gpu0          3       1       8   79.1      0     1       2   75.0     4    0.02
gpu1          3       0       7   73.8      0     2       1      -     -       -
gpu2          1       0       2   25.7      0     1       0   75.0     4    0.02
)";
const char* const kEvents =
    R"({"event":"job_admitted","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":1,"device":-1,"attempt":0,"arg":2}
{"event":"job_placed","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":1,"device":0,"attempt":0,"arg":480}
{"event":"job_dispatched","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":1,"device":0,"attempt":0,"arg":0}
{"event":"frame_done","backend":"sim","t_real_us":*,"t_sim_us":250.000,"job":1,"device":0,"attempt":0,"arg":0}
{"event":"frame_done","backend":"sim","t_real_us":*,"t_sim_us":500.000,"job":1,"device":0,"attempt":0,"arg":1}
{"event":"job_completed","backend":"sim","t_real_us":*,"t_sim_us":500.000,"job":1,"device":0,"attempt":0,"arg":2}
{"event":"job_admitted","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":2,"device":-1,"attempt":0,"arg":4}
{"event":"job_placed","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":2,"device":1,"attempt":0,"arg":960}
{"event":"job_admitted","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":3,"device":-1,"attempt":0,"arg":2}
{"event":"job_placed","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":3,"device":1,"attempt":0,"arg":480}
{"event":"job_stolen","backend":"sim","t_real_us":*,"t_sim_us":500.000,"job":3,"device":0,"attempt":0,"arg":1}
{"event":"job_dispatched","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":2,"device":1,"attempt":0,"arg":0}
{"event":"job_dispatched","backend":"sim","t_real_us":*,"t_sim_us":500.000,"job":3,"device":0,"attempt":0,"arg":0}
{"event":"device_fault","backend":"sim","t_real_us":*,"t_sim_us":120.500,"job":2,"device":1,"attempt":0,"arg":3}
{"event":"device_degraded","backend":"sim","t_real_us":*,"t_sim_us":120.000,"job":2,"device":1,"attempt":0,"arg":0}
{"event":"failover","backend":"sim","t_real_us":*,"t_sim_us":120.000,"job":2,"device":1,"attempt":1,"arg":0}
{"event":"frame_done","backend":"sim","t_real_us":*,"t_sim_us":750.000,"job":3,"device":0,"attempt":0,"arg":0}
{"event":"deadline_miss","backend":"sim","t_real_us":*,"t_sim_us":1000.000,"job":3,"device":0,"attempt":0,"arg":1500}
{"event":"job_completed","backend":"sim","t_real_us":*,"t_sim_us":1000.000,"job":3,"device":0,"attempt":0,"arg":2}
{"event":"job_dispatched","backend":"sim","t_real_us":*,"t_sim_us":1000.000,"job":2,"device":0,"attempt":1,"arg":0}
{"event":"device_fault","backend":"sim","t_real_us":*,"t_sim_us":1100.000,"job":2,"device":0,"attempt":1,"arg":0}
{"event":"failover","backend":"sim","t_real_us":*,"t_sim_us":1100.000,"job":2,"device":0,"attempt":2,"arg":0}
{"event":"job_dispatched","backend":"sim","t_real_us":*,"t_sim_us":1100.000,"job":2,"device":0,"attempt":2,"arg":0}
{"event":"device_fault","backend":"sim","t_real_us":*,"t_sim_us":1150.000,"job":2,"device":0,"attempt":2,"arg":1}
{"event":"retry_exhausted","backend":"sim","t_real_us":*,"t_sim_us":1150.000,"job":2,"device":0,"attempt":2,"arg":3}
{"event":"device_healed","backend":"sim","t_real_us":*,"t_sim_us":120.000,"job":0,"device":1,"attempt":0,"arg":0}
{"event":"job_admitted","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":4,"device":-1,"attempt":0,"arg":2}
{"event":"job_placed","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":4,"device":1,"attempt":0,"arg":480}
{"event":"job_admitted","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":5,"device":-1,"attempt":0,"arg":2}
{"event":"job_placed","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":5,"device":1,"attempt":0,"arg":480}
{"event":"batch_formed","backend":"sim","t_real_us":*,"t_sim_us":120.000,"job":4,"device":1,"attempt":0,"arg":2}
{"event":"job_dispatched","backend":"sim","t_real_us":*,"t_sim_us":120.000,"job":4,"device":1,"attempt":0,"arg":0}
{"event":"job_completed","backend":"sim","t_real_us":*,"t_sim_us":570.000,"job":4,"device":1,"attempt":0,"arg":2}
{"event":"job_dispatched","backend":"sim","t_real_us":*,"t_sim_us":570.000,"job":5,"device":1,"attempt":0,"arg":0}
{"event":"job_completed","backend":"sim","t_real_us":*,"t_sim_us":1020.000,"job":5,"device":1,"attempt":0,"arg":2}
{"event":"job_admitted","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":6,"device":-1,"attempt":0,"arg":3}
{"event":"job_placed","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":6,"device":0,"attempt":0,"arg":720}
{"event":"job_dispatched","backend":"sim","t_real_us":*,"t_sim_us":1150.000,"job":6,"device":0,"attempt":0,"arg":0}
{"event":"frame_done","backend":"sim","t_real_us":*,"t_sim_us":1390.000,"job":6,"device":0,"attempt":0,"arg":0}
{"event":"job_preempted","backend":"sim","t_real_us":*,"t_sim_us":1390.000,"job":6,"device":0,"attempt":0,"arg":1}
{"event":"job_dispatched","backend":"sim","t_real_us":*,"t_sim_us":1020.000,"job":6,"device":1,"attempt":0,"arg":0}
{"event":"job_completed","backend":"sim","t_real_us":*,"t_sim_us":1500.000,"job":6,"device":1,"attempt":0,"arg":3}
{"event":"job_shed","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":7,"device":-1,"attempt":0,"arg":0}
{"event":"job_shed","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":8,"device":-1,"attempt":0,"arg":1}
{"event":"scale_up","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":0,"device":2,"attempt":0,"arg":3}
{"event":"job_admitted","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":9,"device":-1,"attempt":0,"arg":2}
{"event":"job_placed","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":9,"device":1,"attempt":0,"arg":480}
{"event":"job_admitted","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":10,"device":-1,"attempt":0,"arg":4}
{"event":"job_placed","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":10,"device":1,"attempt":0,"arg":960}
{"event":"job_dispatched","backend":"sim","t_real_us":*,"t_sim_us":1500.000,"job":10,"device":1,"attempt":0,"arg":0}
{"event":"drain_started","backend":"sim","t_real_us":*,"t_sim_us":1500.000,"job":0,"device":1,"attempt":0,"arg":1}
{"event":"drain_complete","backend":"sim","t_real_us":*,"t_sim_us":1740.000,"job":0,"device":1,"attempt":0,"arg":0}
{"event":"scale_down","backend":"sim","t_real_us":*,"t_sim_us":1740.000,"job":0,"device":1,"attempt":0,"arg":2}
{"event":"job_dispatched","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":9,"device":2,"attempt":0,"arg":0}
{"event":"job_completed","backend":"sim","t_real_us":*,"t_sim_us":480.000,"job":9,"device":2,"attempt":0,"arg":2}
{"event":"alert_raised","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":0,"device":-1,"attempt":0,"arg":0}
{"event":"alert_raised","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":0,"device":-1,"attempt":0,"arg":1}
{"event":"alert_cleared","backend":"sim","t_real_us":*,"t_sim_us":0.000,"job":0,"device":-1,"attempt":0,"arg":1}
{"event":"log_summary","recorded":58,"dropped":4,"capacity":58}
)";

TEST(FleetTelemetryGoldenTest, ScriptedTransitionsPinEveryExport) {
  ScriptedFleet fleet;
  run_script(fleet);
  const FleetMetrics::Snapshot s = fleet.m.snapshot();
  EXPECT_EQ(s.jobs_completed + s.jobs_failed + s.jobs_shed, s.jobs_submitted);

  EXPECT_EQ(prom_lines(fleet.m.prometheus()), prom_lines(kPrometheus));
  EXPECT_EQ(canonical_json(fleet.m.json()), canonical_json(kJson));
  EXPECT_EQ(mask_report(fleet.m.report()), kReport);
  EXPECT_EQ(mask_events(fleet.log.jsonl()), kEvents);
}

TEST(FleetTelemetryGoldenTest, ScriptReachesEveryEventTypeAndCounter) {
  ScriptedFleet fleet;
  run_script(fleet);
  std::set<EventType> seen;
  for (const obs::Event& e : fleet.log.snapshot()) seen.insert(e.type);
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(EventType::AlertCleared) + 1);
  // Every unlabelled fleet counter moved (events_dropped included).
  for (const std::string& line : prom_lines(fleet.m.prometheus())) {
    if (line[0] == '#' || line.find('{') != std::string::npos) continue;
    const std::string name = line.substr(0, line.find(' '));
    if (name.size() < 6 || name.compare(name.size() - 6, 6, "_total") != 0) continue;
    EXPECT_NE(line.substr(line.find(' ') + 1), "0") << name << " never moved";
  }
}

// A Prometheus scrape declares each metric family once: a family of
// several labelled series (one histogram per priority class) shares one
// HELP and one TYPE line.
TEST(FleetTelemetryGoldenTest, EveryFamilyIsDeclaredOnce) {
  ScriptedFleet fleet;
  run_script(fleet);
  std::map<std::string, int> help;
  std::map<std::string, int> type;
  std::istringstream scrape(fleet.m.prometheus());
  for (std::string line; std::getline(scrape, line);) {
    for (auto [prefix, counts] : {std::pair{"# HELP ", &help}, std::pair{"# TYPE ", &type}}) {
      const std::string p = prefix;
      if (line.compare(0, p.size(), p) != 0) continue;
      const std::string rest = line.substr(p.size());
      ++(*counts)[rest.substr(0, rest.find(' '))];
    }
  }
  EXPECT_EQ(type.count("saclo_class_latency_us"), 1u);
  EXPECT_EQ(help.size(), type.size());
  for (const auto& [name, n] : type) EXPECT_EQ(n, 1) << "# TYPE " << name;
  for (const auto& [name, n] : help) EXPECT_EQ(n, 1) << "# HELP " << name;
}

}  // namespace
}  // namespace saclo::serve
