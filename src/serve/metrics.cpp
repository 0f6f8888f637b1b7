#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "core/fmt.hpp"
#include "core/json.hpp"

namespace saclo::serve {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

FleetMetrics::FleetMetrics(int devices) : devices_(static_cast<std::size_t>(devices)) {
  const auto now = std::chrono::steady_clock::now();
  for (DeviceState& d : devices_) d.active_since = now;
}

void FleetMetrics::set_active(int device, bool active) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = devices_.at(static_cast<std::size_t>(device));
  if (d.active == active) return;
  const auto now = std::chrono::steady_clock::now();
  if (d.active) {
    d.active_accum_us +=
        std::chrono::duration<double, std::micro>(now - d.active_since).count();
  } else {
    d.active_since = now;
  }
  d.active = active;
}

void FleetMetrics::on_scale_up(int device) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++scale_ups_;
  }
  set_active(device, true);
}

void FleetMetrics::on_drain_started(int device, int rehomed) {
  std::lock_guard<std::mutex> lock(mutex_);
  (void)devices_.at(static_cast<std::size_t>(device));  // bounds check only
  (void)rehomed;  // per-job on_rehomed calls keep the counter; this records the drain
  ++scale_downs_;
}

void FleetMetrics::on_drain_complete(int device) { set_active(device, false); }

void FleetMetrics::on_rehomed(int from, int to, bool queued) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& source = devices_.at(static_cast<std::size_t>(from));
  DeviceState& target = devices_.at(static_cast<std::size_t>(to));
  ++jobs_rehomed_;
  if (queued) {
    --source.queue_depth;
  } else {
    source.running = 0;
  }
  ++target.queue_depth;
  target.max_queue_depth = std::max(target.max_queue_depth, target.queue_depth);
}

void FleetMetrics::on_submit(int device, const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = devices_.at(static_cast<std::size_t>(device));
  ++submitted_;
  ++tenants_[tenant].submitted;
  ++d.queue_depth;
  d.max_queue_depth = std::max(d.max_queue_depth, d.queue_depth);
}

void FleetMetrics::on_dispatch(int device) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = devices_.at(static_cast<std::size_t>(device));
  --d.queue_depth;
  d.running = 1;
}

void FleetMetrics::on_complete(int device, const JobResult& result, double sim_clock_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = devices_.at(static_cast<std::size_t>(device));
  d.running = 0;
  ++d.jobs;
  d.frames += result.frames;
  d.busy_sim_us += result.sim_wall_us;
  d.sim_clock_us = sim_clock_us;
  ++completed_;
  frames_ += result.frames;
  latency_hist_.record(result.latency_us);
  sim_job_hist_.record(result.sim_wall_us);
  const std::size_t cls = std::min<std::size_t>(static_cast<std::size_t>(result.priority),
                                                class_latency_hist_.size() - 1);
  class_latency_hist_[cls].record(result.latency_us);
  TenantState& t = tenants_[result.tenant.empty() ? "default" : result.tenant];
  ++t.completed;
  if (result.deadline_us > 0) {
    ++t.slo_jobs;
    if (result.slo_met) {
      ++t.slo_met;
    } else {
      ++deadline_misses_;
    }
  }
}

void FleetMetrics::on_failed(int device) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = devices_.at(static_cast<std::size_t>(device));
  d.running = 0;
  ++d.jobs_failed;
  ++failed_;
}

void FleetMetrics::on_device_fault(int device, std::int64_t reclaimed_blocks) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = devices_.at(static_cast<std::size_t>(device));
  d.running = 0;
  ++d.faults;
  ++device_faults_;
  buffers_reclaimed_ += reclaimed_blocks;
}

void FleetMetrics::on_failover(int from, int to) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& target = devices_.at(static_cast<std::size_t>(to));
  ++retries_;
  if (from != to) ++failovers_;
  // The retried job sits in the target's queue until re-dispatched.
  ++target.queue_depth;
  target.max_queue_depth = std::max(target.max_queue_depth, target.queue_depth);
}

void FleetMetrics::on_degraded(int device) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = devices_.at(static_cast<std::size_t>(device));
  if (d.degraded) return;
  d.degraded = true;
  d.degraded_since = std::chrono::steady_clock::now();
}

void FleetMetrics::on_healed(int device) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = devices_.at(static_cast<std::size_t>(device));
  if (!d.degraded) return;
  d.degraded = false;
  d.degraded_accum_us += std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - d.degraded_since)
                             .count();
}

void FleetMetrics::on_shed(const std::string& tenant, ShedReason reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  (void)reason;  // the event log attributes reasons; counters stay coarse
  ++submitted_;
  ++shed_;
  TenantState& t = tenants_[tenant.empty() ? "default" : tenant];
  ++t.submitted;
  ++t.shed;
}

void FleetMetrics::on_preempted(int from, int to) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& source = devices_.at(static_cast<std::size_t>(from));
  DeviceState& target = devices_.at(static_cast<std::size_t>(to));
  ++preemptions_;
  source.running = 0;
  // The displaced job sits in the target's queue until re-dispatched.
  ++target.queue_depth;
  target.max_queue_depth = std::max(target.max_queue_depth, target.queue_depth);
}

void FleetMetrics::on_steal(int from, int to) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& source = devices_.at(static_cast<std::size_t>(from));
  DeviceState& target = devices_.at(static_cast<std::size_t>(to));
  ++steals_;
  --source.queue_depth;
  ++target.queue_depth;
  target.max_queue_depth = std::max(target.max_queue_depth, target.queue_depth);
}

void FleetMetrics::on_batch(int device, int size) {
  std::lock_guard<std::mutex> lock(mutex_);
  (void)devices_.at(static_cast<std::size_t>(device));  // bounds check only
  ++batches_;
  jobs_batched_ += size;
  batch_size_hist_.record(static_cast<double>(size));
}

void FleetMetrics::set_elapsed_real_us(double us) {
  std::lock_guard<std::mutex> lock(mutex_);
  elapsed_real_us_ = us;
}

void FleetMetrics::set_allocator_stats(int device, const CachingDeviceAllocator::Stats& stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = devices_.at(static_cast<std::size_t>(device));
  d.has_allocator = true;
  d.allocator = stats;
}

void FleetMetrics::set_build_info(std::string sha, std::string backend_opts) {
  std::lock_guard<std::mutex> lock(mutex_);
  build_sha_ = std::move(sha);
  build_backend_opts_ = std::move(backend_opts);
}

void FleetMetrics::set_events_dropped(std::uint64_t dropped) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_dropped_ = dropped;
}

void FleetMetrics::set_active_alerts(int count) {
  std::lock_guard<std::mutex> lock(mutex_);
  active_alerts_ = count;
}

FleetMetrics::Snapshot FleetMetrics::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot s;
  s.jobs_submitted = submitted_;
  s.jobs_completed = completed_;
  s.jobs_failed = failed_;
  s.frames_completed = frames_;
  s.device_faults = device_faults_;
  s.failovers = failovers_;
  s.retries = retries_;
  s.buffers_reclaimed = buffers_reclaimed_;
  s.batches_formed = batches_;
  s.jobs_batched = jobs_batched_;
  s.jobs_shed = shed_;
  s.preemptions = preemptions_;
  s.steals = steals_;
  s.deadline_misses = deadline_misses_;
  s.scale_ups = scale_ups_;
  s.scale_downs = scale_downs_;
  s.jobs_rehomed = jobs_rehomed_;
  s.build_sha = build_sha_;
  s.build_backend_opts = build_backend_opts_;
  s.events_dropped = events_dropped_;
  s.active_alerts = active_alerts_;
  s.elapsed_real_us = elapsed_real_us_;
  for (const auto& [tenant, t] : tenants_) {
    Snapshot::TenantSnapshot ts;
    ts.tenant = tenant;
    ts.submitted = t.submitted;
    ts.completed = t.completed;
    ts.shed = t.shed;
    ts.slo_jobs = t.slo_jobs;
    ts.slo_met = t.slo_met;
    s.tenants.push_back(ts);
  }
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const DeviceState& d = devices_[i];
    DeviceSnapshot ds;
    ds.device = static_cast<int>(i);
    ds.jobs = d.jobs;
    ds.jobs_failed = d.jobs_failed;
    ds.faults = d.faults;
    ds.frames = d.frames;
    ds.degraded = d.degraded;
    ds.degraded_us = d.degraded_accum_us;
    if (d.degraded) {
      ds.degraded_us +=
          std::chrono::duration<double, std::micro>(now - d.degraded_since).count();
      ++s.degraded_devices;
    }
    ds.active = d.active;
    ds.active_us = d.active_accum_us;
    if (d.active) {
      ds.active_us += std::chrono::duration<double, std::micro>(now - d.active_since).count();
      ++s.active_devices;
    }
    s.device_seconds += ds.active_us / 1e6;
    ds.queue_depth = d.queue_depth;
    ds.max_queue_depth = d.max_queue_depth;
    ds.running = d.running;
    ds.busy_sim_us = d.busy_sim_us;
    ds.sim_clock_us = d.sim_clock_us;
    ds.has_allocator = d.has_allocator;
    ds.allocator = d.allocator;
    if (d.has_allocator) s.alloc_cap_evictions += d.allocator.cap_evictions;
    s.sim_makespan_us = std::max(s.sim_makespan_us, d.sim_clock_us);
    s.devices.push_back(ds);
  }
  for (DeviceSnapshot& ds : s.devices) {
    ds.utilization = s.sim_makespan_us > 0 ? ds.busy_sim_us / s.sim_makespan_us : 0.0;
  }
  if (s.sim_makespan_us > 0) {
    s.throughput_fps_sim = static_cast<double>(frames_) / (s.sim_makespan_us / 1e6);
  }
  if (elapsed_real_us_ > 0) {
    s.throughput_fps_real = static_cast<double>(frames_) / (elapsed_real_us_ / 1e6);
  }
  s.latency_p50_us = latency_hist_.percentile(0.50);
  s.latency_p95_us = latency_hist_.percentile(0.95);
  s.latency_p99_us = latency_hist_.percentile(0.99);
  s.latency_max_us = latency_hist_.max();
  s.latency_mean_us = latency_hist_.mean();
  s.sim_job_p50_us = sim_job_hist_.percentile(0.50);
  s.sim_job_p99_us = sim_job_hist_.percentile(0.99);
  s.latency_hist = latency_hist_;
  s.sim_job_hist = sim_job_hist_;
  s.batch_size_hist = batch_size_hist_;
  s.class_latency_hist = class_latency_hist_;
  return s;
}

std::string FleetMetrics::report() const {
  const Snapshot s = snapshot();
  std::string out;
  out += cat("fleet: ", s.devices.size(), " device(s), ", s.jobs_completed, "/", s.jobs_submitted,
             " jobs done, ", s.frames_completed, " frames\n");
  out += cat("throughput: ", fixed(s.throughput_fps_sim, 1), " frames/s simulated, ",
             fixed(s.throughput_fps_real, 1), " frames/s real\n");
  out += cat("latency (real): p50 ", fixed(s.latency_p50_us / 1e3, 2), "ms  p95 ",
             fixed(s.latency_p95_us / 1e3, 2), "ms  p99 ", fixed(s.latency_p99_us / 1e3, 2),
             "ms  max ", fixed(s.latency_max_us / 1e3, 2), "ms\n");
  out += cat("sim makespan ", fixed(s.sim_makespan_us / 1e6, 3), "s, sim job p50 ",
             fixed(s.sim_job_p50_us / 1e3, 2), "ms\n");
  out += cat("health: ", s.device_faults, " device fault(s), ", s.failovers, " failover(s), ",
             s.retries, " retry(s), ", s.jobs_failed, " failed job(s), ", s.degraded_devices,
             " degraded device(s)\n");
  out += cat("scheduling: ", s.jobs_shed, " shed, ", s.preemptions, " preemption(s), ",
             s.steals, " steal(s), ", s.deadline_misses, " deadline miss(es)\n");
  if (s.scale_ups > 0 || s.scale_downs > 0 ||
      s.active_devices != static_cast<int>(s.devices.size())) {
    out += cat("autoscale: ", s.active_devices, "/", s.devices.size(), " active, ",
               s.scale_ups, " scale-up(s), ", s.scale_downs, " scale-down(s), ",
               s.jobs_rehomed, " job(s) re-homed, ", fixed(s.device_seconds, 2),
               " device-seconds\n");
  }
  if (!s.tenants.empty()) {
    out += "tenants:\n";
    for (const Snapshot::TenantSnapshot& t : s.tenants) {
      out += cat("  ", pad_right(t.tenant, 12), pad_left(std::to_string(t.completed), 7), "/",
                 t.submitted, " done, ", t.shed, " shed, slo ", t.slo_met, "/", t.slo_jobs,
                 " (", fixed(100 * t.slo_attainment(), 1), "%)\n");
    }
  }
  if (s.batches_formed > 0) {
    out += cat("batching: ", s.batches_formed, " batch(es), ", s.jobs_batched,
               " jobs coalesced, max size ",
               static_cast<std::int64_t>(s.batch_size_hist.max()), "\n");
  }
  out += pad_right("device", 8) + pad_left("jobs", 7) + pad_left("failed", 8) +
         pad_left("frames", 8) + pad_left("util", 7) + pad_left("queue", 7) +
         pad_left("maxq", 6) + pad_left("faults", 8) + pad_left("hit%", 7) +
         pad_left("miss", 6) + pad_left("peakMB", 8) + "\n";
  out += std::string(72, '-') + "\n";
  for (const DeviceSnapshot& d : s.devices) {
    // A trailing '*' marks a currently degraded device.
    out += pad_right(cat("gpu", d.device, d.degraded ? "*" : ""), 8) +
           pad_left(std::to_string(d.jobs), 7) + pad_left(std::to_string(d.jobs_failed), 8) +
           pad_left(std::to_string(d.frames), 8) + pad_left(fixed(100 * d.utilization, 1), 7) +
           pad_left(std::to_string(d.queue_depth), 7) +
           pad_left(std::to_string(d.max_queue_depth), 6) +
           pad_left(std::to_string(d.faults), 8);
    if (d.has_allocator) {
      out += pad_left(fixed(100 * d.allocator.hit_rate(), 1), 7) +
             pad_left(std::to_string(d.allocator.misses), 6) +
             pad_left(fixed(static_cast<double>(d.allocator.pool_peak_bytes) / 1e6, 2), 8);
    } else {
      out += pad_left("-", 7) + pad_left("-", 6) + pad_left("-", 8);
    }
    out += "\n";
  }
  return out;
}

namespace {
std::string device_json(const FleetMetrics::DeviceSnapshot& d) {
  std::string out = cat("{\"device\":", d.device, ",\"jobs\":", d.jobs,
                        ",\"jobs_failed\":", d.jobs_failed, ",\"faults\":", d.faults,
                        ",\"degraded\":", d.degraded ? "true" : "false",
                        ",\"degraded_us\":", fixed(d.degraded_us, 1),
                        ",\"active\":", d.active ? "true" : "false",
                        ",\"active_us\":", fixed(d.active_us, 1), ",\"frames\":", d.frames,
                        ",\"queue_depth\":", d.queue_depth,
                        ",\"max_queue_depth\":", d.max_queue_depth,
                        ",\"busy_sim_us\":", fixed(d.busy_sim_us, 3),
                        ",\"sim_clock_us\":", fixed(d.sim_clock_us, 3),
                        ",\"utilization\":", fixed(d.utilization, 4));
  if (d.has_allocator) {
    out += cat(",\"allocator\":{\"hits\":", d.allocator.hits, ",\"misses\":", d.allocator.misses,
               ",\"hit_rate\":", fixed(d.allocator.hit_rate(), 4),
               ",\"frees\":", d.allocator.frees, ",\"live_blocks\":", d.allocator.live_blocks,
               ",\"cached_blocks\":", d.allocator.cached_blocks,
               ",\"cached_bytes\":", d.allocator.cached_bytes,
               ",\"cap_evictions\":", d.allocator.cap_evictions,
               ",\"fragmentation\":", fixed(d.allocator.fragmentation(), 4),
               ",\"pool_peak_bytes\":", d.allocator.pool_peak_bytes, "}");
  }
  return out + "}";
}
}  // namespace

std::string FleetMetrics::json() const {
  const Snapshot s = snapshot();
  std::string out = cat(
      "{\"devices\":", s.devices.size(), ",\"jobs_submitted\":", s.jobs_submitted,
      ",\"jobs_completed\":", s.jobs_completed, ",\"jobs_failed\":", s.jobs_failed,
      ",\"frames_completed\":", s.frames_completed,
      ",\"health\":{\"device_faults\":", s.device_faults, ",\"failovers\":", s.failovers,
      ",\"retries\":", s.retries, ",\"degraded_devices\":", s.degraded_devices,
      ",\"buffers_reclaimed\":", s.buffers_reclaimed, "}",
      ",\"batching\":{\"batches_formed\":", s.batches_formed,
      ",\"jobs_batched\":", s.jobs_batched,
      ",\"max_batch_size\":", static_cast<std::int64_t>(s.batch_size_hist.max()), "}",
      ",\"scheduling\":{\"jobs_shed\":", s.jobs_shed, ",\"preemptions\":", s.preemptions,
      ",\"steals\":", s.steals, ",\"deadline_misses\":", s.deadline_misses, "}",
      ",\"autoscale\":{\"scale_ups\":", s.scale_ups, ",\"scale_downs\":", s.scale_downs,
      ",\"jobs_rehomed\":", s.jobs_rehomed, ",\"active_devices\":", s.active_devices,
      ",\"device_seconds\":", fixed(s.device_seconds, 3),
      ",\"alloc_cap_evictions\":", s.alloc_cap_evictions, "}",
      ",\"elapsed_real_us\":", fixed(s.elapsed_real_us, 1),
      ",\"sim_makespan_us\":", fixed(s.sim_makespan_us, 3),
      ",\"throughput_fps_sim\":", fixed(s.throughput_fps_sim, 3),
      ",\"throughput_fps_real\":", fixed(s.throughput_fps_real, 3),
      // Percentiles come from the histograms the Prometheus export
      // publishes; exact values keep each inside its bucket's le.
      ",\"latency_real_us\":{\"p50\":", round_trip(s.latency_p50_us), ",\"p95\":",
      round_trip(s.latency_p95_us), ",\"p99\":", round_trip(s.latency_p99_us), ",\"mean\":",
      fixed(s.latency_mean_us, 1), ",\"max\":", fixed(s.latency_max_us, 1), "}",
      ",\"sim_job_us\":{\"p50\":", fixed(s.sim_job_p50_us, 3), ",\"p99\":",
      fixed(s.sim_job_p99_us, 3), "}", ",\"tenants\":[");
  for (std::size_t i = 0; i < s.tenants.size(); ++i) {
    const Snapshot::TenantSnapshot& t = s.tenants[i];
    if (i > 0) out += ",";
    out += cat("{\"tenant\":", json_string(t.tenant), ",\"submitted\":", t.submitted,
               ",\"completed\":", t.completed, ",\"shed\":", t.shed,
               ",\"slo_jobs\":", t.slo_jobs, ",\"slo_met\":", t.slo_met,
               ",\"slo_attainment\":", fixed(t.slo_attainment(), 4), "}");
  }
  out += "],\"latency_by_class\":{";
  for (std::size_t cls = 0; cls < s.class_latency_hist.size(); ++cls) {
    const obs::LogHistogram& h = s.class_latency_hist[cls];
    if (cls > 0) out += ",";
    out += cat("\"", priority_name(static_cast<Priority>(cls)), "\":{\"count\":", h.count(),
               ",\"p50\":", round_trip(h.percentile(0.50)), ",\"p99\":",
               round_trip(h.percentile(0.99)), ",\"max\":", fixed(h.max(), 1), "}");
  }
  out += "},\"per_device\":[";
  for (std::size_t i = 0; i < s.devices.size(); ++i) {
    if (i > 0) out += ",";
    out += device_json(s.devices[i]);
  }
  return out + "]}";
}

namespace {
void prom_scalar(std::string& out, const std::string& name, const std::string& type,
                 const std::string& help, const std::string& value) {
  out += cat("# HELP ", name, " ", help, "\n# TYPE ", name, " ", type, "\n", name, " ", value,
             "\n");
}
}  // namespace

std::string prom_escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string FleetMetrics::prometheus() const {
  const Snapshot s = snapshot();
  std::string out;
  if (!s.build_sha.empty() || !s.build_backend_opts.empty()) {
    out += "# HELP saclo_build_info Build identity (constant 1; the labels carry the data).\n";
    out += "# TYPE saclo_build_info gauge\n";
    out += cat("saclo_build_info{sha=\"", prom_escape_label_value(s.build_sha),
               "\",backend_opts=\"", prom_escape_label_value(s.build_backend_opts), "\"} 1\n");
  }
  prom_scalar(out, "saclo_jobs_submitted_total", "counter", "Jobs accepted by the runtime.",
              std::to_string(s.jobs_submitted));
  prom_scalar(out, "saclo_jobs_completed_total", "counter", "Jobs whose future resolved.",
              std::to_string(s.jobs_completed));
  prom_scalar(out, "saclo_jobs_failed_total", "counter",
              "Jobs that exhausted retries (future carries an exception).",
              std::to_string(s.jobs_failed));
  prom_scalar(out, "saclo_frames_completed_total", "counter", "Frames across completed jobs.",
              std::to_string(s.frames_completed));
  prom_scalar(out, "saclo_device_faults_total", "counter",
              "Injected device faults observed fleet-wide.", std::to_string(s.device_faults));
  prom_scalar(out, "saclo_failovers_total", "counter", "Retries that moved device.",
              std::to_string(s.failovers));
  prom_scalar(out, "saclo_retries_total", "counter", "Faulted jobs re-enqueued.",
              std::to_string(s.retries));
  prom_scalar(out, "saclo_buffers_reclaimed_total", "counter",
              "Allocator blocks swept back after faults.", std::to_string(s.buffers_reclaimed));
  prom_scalar(out, "saclo_degraded_devices", "gauge", "Devices currently marked degraded.",
              std::to_string(s.degraded_devices));
  prom_scalar(out, "saclo_batches_formed_total", "counter",
              "Dispatches that coalesced two or more jobs.", std::to_string(s.batches_formed));
  prom_scalar(out, "saclo_jobs_batched_total", "counter",
              "Jobs that rode in a coalesced batch.", std::to_string(s.jobs_batched));
  prom_scalar(out, "saclo_jobs_shed_total", "counter",
              "Submissions refused by admission control or load shedding.",
              std::to_string(s.jobs_shed));
  prom_scalar(out, "saclo_preemptions_total", "counter",
              "In-flight jobs displaced at a frame boundary.", std::to_string(s.preemptions));
  prom_scalar(out, "saclo_steals_total", "counter",
              "Queued jobs moved to an idle dispatcher.", std::to_string(s.steals));
  prom_scalar(out, "saclo_deadline_misses_total", "counter",
              "Jobs completed past their SLO deadline.", std::to_string(s.deadline_misses));
  prom_scalar(out, "saclo_scale_ups_total", "counter", "Devices activated by the autoscaler.",
              std::to_string(s.scale_ups));
  prom_scalar(out, "saclo_scale_downs_total", "counter", "Graceful device drains started.",
              std::to_string(s.scale_downs));
  prom_scalar(out, "saclo_jobs_rehomed_total", "counter",
              "Queued jobs moved off draining devices.", std::to_string(s.jobs_rehomed));
  prom_scalar(out, "saclo_active_devices", "gauge", "Devices currently placement-eligible.",
              std::to_string(s.active_devices));
  prom_scalar(out, "saclo_device_seconds_total", "counter",
              "Sum over devices of real seconds spent active.", fixed(s.device_seconds, 3));
  prom_scalar(out, "saclo_alloc_cap_evictions_total", "counter",
              "Allocator blocks evicted by the per-size-class cache cap, fleet-wide.",
              std::to_string(s.alloc_cap_evictions));
  prom_scalar(out, "saclo_sim_makespan_us", "gauge",
              "Fleet simulated makespan (max device clock), microseconds.",
              fixed(s.sim_makespan_us, 3));
  prom_scalar(out, "saclo_throughput_fps_sim", "gauge",
              "Frames per second of simulated device time.", fixed(s.throughput_fps_sim, 3));
  prom_scalar(out, "saclo_throughput_fps_real", "gauge", "Frames per second of real wall clock.",
              fixed(s.throughput_fps_real, 3));
  prom_scalar(out, "saclo_events_dropped_total", "counter",
              "Structured events rejected because the event ring was full.",
              std::to_string(s.events_dropped));
  prom_scalar(out, "saclo_alerts_active", "gauge", "Alerts currently firing.",
              std::to_string(s.active_alerts));
  out += "# HELP saclo_device_jobs_total Jobs completed per device.\n";
  out += "# TYPE saclo_device_jobs_total counter\n";
  for (const DeviceSnapshot& d : s.devices) {
    out += cat("saclo_device_jobs_total{device=\"", d.device, "\"} ", d.jobs, "\n");
  }
  out += "# HELP saclo_device_utilization Busy share of the fleet makespan per device.\n";
  out += "# TYPE saclo_device_utilization gauge\n";
  for (const DeviceSnapshot& d : s.devices) {
    out += cat("saclo_device_utilization{device=\"", d.device, "\"} ", fixed(d.utilization, 4),
               "\n");
  }
  if (!s.tenants.empty()) {
    out += "# HELP saclo_tenant_slo_attainment Share of a tenant's deadline jobs completed "
           "within their SLO.\n";
    out += "# TYPE saclo_tenant_slo_attainment gauge\n";
    for (const Snapshot::TenantSnapshot& t : s.tenants) {
      out += cat("saclo_tenant_slo_attainment{tenant=\"", prom_escape_label_value(t.tenant),
                 "\"} ", fixed(t.slo_attainment(), 4), "\n");
    }
    out += "# HELP saclo_tenant_jobs_shed_total Submissions shed per tenant.\n";
    out += "# TYPE saclo_tenant_jobs_shed_total counter\n";
    for (const Snapshot::TenantSnapshot& t : s.tenants) {
      out += cat("saclo_tenant_jobs_shed_total{tenant=\"", prom_escape_label_value(t.tenant),
                 "\"} ", t.shed, "\n");
    }
  }
  obs::append_prometheus_histogram(out, "saclo_job_latency_us",
                                   "Real end-to-end job latency (submit to completion).",
                                   s.latency_hist);
  obs::append_prometheus_histogram(out, "saclo_job_sim_us",
                                   "Simulated device time per completed job.", s.sim_job_hist);
  obs::append_prometheus_histogram(out, "saclo_batch_size",
                                   "Sizes of coalesced batches (>= 2).", s.batch_size_hist);
  for (std::size_t cls = 0; cls < s.class_latency_hist.size(); ++cls) {
    obs::append_prometheus_histogram(
        out, "saclo_class_latency_us",
        "Real end-to-end job latency split by priority class.", s.class_latency_hist[cls],
        cat("class=\"", prom_escape_label_value(priority_name(static_cast<Priority>(cls))),
            "\""));
  }
  return out;
}

}  // namespace saclo::serve
