#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <variant>

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

namespace {
using Micros = std::chrono::duration<double, std::micro>;

/// Moves one queued job onto `target` and keeps its high-water mark.
void enqueue(FleetMetrics::DeviceSnapshot& target) {
  ++target.queue_depth;
  target.max_queue_depth = std::max(target.max_queue_depth, target.queue_depth);
}
}  // namespace

FleetMetrics::FleetMetrics(int devices) : devices_(static_cast<std::size_t>(devices)) {
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    devices_[i].device = static_cast<int>(i);
    devices_[i].active_since = now;
  }
}

void FleetMetrics::attach_event_log(obs::EventLog* log, const obs::TraceClock* clock,
                                    std::uint8_t backend) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_ = log;
  clock_ = clock;
  backend_ = backend;
}

void FleetMetrics::log(obs::EventType type, std::uint64_t job, int device, int attempt,
                       std::int64_t arg, double t_sim_us) const {
  if (events_ == nullptr) return;
  events_->emit({type, backend_, job, device, attempt, arg, clock_->now_us(), t_sim_us});
}

void FleetMetrics::set_active_locked(DeviceState& d, bool active) {
  if (d.active == active) return;
  const auto now = std::chrono::steady_clock::now();
  if (d.active) {
    d.active_us += Micros(now - d.active_since).count();
  } else {
    d.active_since = now;
  }
  d.active = active;
}

void FleetMetrics::set_active(int device, bool active) {
  std::lock_guard<std::mutex> lock(mutex_);
  set_active_locked(this->device(device), active);
}

void FleetMetrics::on_scale_up(int device, int active, double t_sim_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  set_active_locked(this->device(device), true);
  ++live_.scale_ups;
  log(obs::EventType::ScaleUp, 0, device, 0, active, t_sim_us);
}

void FleetMetrics::on_drain_started(int device, int rehomed, double t_sim_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  (void)this->device(device);  // bounds check only
  ++live_.scale_downs;
  log(obs::EventType::DrainStarted, 0, device, 0, rehomed, t_sim_us);
}

void FleetMetrics::on_drain_complete(int device, std::int64_t reclaimed, int active,
                                     double t_sim_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  set_active_locked(this->device(device), false);
  log(obs::EventType::DrainComplete, 0, device, 0, reclaimed, t_sim_us);
  log(obs::EventType::ScaleDown, 0, device, 0, active, t_sim_us);
}

void FleetMetrics::on_rehomed(int from, int to, bool queued) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& source = device(from);
  ++live_.jobs_rehomed;
  if (queued) {
    --source.queue_depth;
  } else {
    source.running = 0;
  }
  enqueue(device(to));
}

void FleetMetrics::on_submit(std::uint64_t job, int device, const std::string& tenant,
                             int frames, double estimate_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  enqueue(this->device(device));
  ++live_.jobs_submitted;
  ++tenants_[tenant].submitted;
  log(obs::EventType::JobAdmitted, job, -1, 0, frames, 0.0);
  log(obs::EventType::JobPlaced, job, device, 0, std::llround(estimate_us), 0.0);
}

void FleetMetrics::on_dispatch(std::uint64_t job, int device, int attempt, double t_sim_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = this->device(device);
  --d.queue_depth;
  d.running = 1;
  log(obs::EventType::JobDispatched, job, device, attempt, 0, t_sim_us);
}

void FleetMetrics::on_frame_done(std::uint64_t job, int device, int attempt, int frame,
                                 double t_sim_us) const {
  log(obs::EventType::FrameDone, job, device, attempt, frame, t_sim_us);
}

void FleetMetrics::on_complete(int device, const JobResult& result, double sim_clock_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = this->device(device);
  d.running = 0;
  ++d.jobs;
  d.frames += result.frames;
  d.busy_sim_us += result.sim_wall_us;
  d.sim_clock_us = sim_clock_us;
  ++live_.jobs_completed;
  live_.frames_completed += result.frames;
  live_.latency_hist.record(result.latency_us);
  live_.sim_job_hist.record(result.sim_wall_us);
  const std::size_t cls = std::min<std::size_t>(static_cast<std::size_t>(result.priority),
                                                live_.class_latency_hist.size() - 1);
  live_.class_latency_hist[cls].record(result.latency_us);
  Snapshot::TenantSnapshot& t = tenants_[result.tenant];
  ++t.completed;
  if (result.deadline_us > 0) {
    ++t.slo_jobs;
    if (result.slo_met) {
      ++t.slo_met;
    } else {
      ++live_.deadline_misses;
      log(obs::EventType::DeadlineMiss, result.id, device, result.attempts,
          std::llround(result.latency_us - result.deadline_us), sim_clock_us);
    }
  }
  log(obs::EventType::JobCompleted, result.id, device, result.attempts, result.frames,
      sim_clock_us);
}

void FleetMetrics::on_failed(std::uint64_t job, int device, int attempt, double t_sim_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = this->device(device);
  d.running = 0;
  ++d.jobs_failed;
  ++live_.jobs_failed;
  log(obs::EventType::RetryExhausted, job, device, attempt, attempt + 1, t_sim_us);
}

void FleetMetrics::on_device_fault(std::uint64_t job, int device, int attempt,
                                   std::int64_t reclaimed_blocks, double t_sim_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = this->device(device);
  d.running = 0;
  ++d.faults;
  ++live_.device_faults;
  live_.buffers_reclaimed += reclaimed_blocks;
  log(obs::EventType::DeviceFault, job, device, attempt, reclaimed_blocks, t_sim_us);
}

void FleetMetrics::on_failover(std::uint64_t job, int from, int to, int attempt, double t_sim_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The retried job sits in the target's queue until re-dispatched.
  enqueue(device(to));
  ++live_.retries;
  if (from != to) ++live_.failovers;
  log(obs::EventType::Failover, job, from, attempt, to, t_sim_us);
}

void FleetMetrics::on_degraded(std::uint64_t job, int device, int attempt, double t_sim_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = this->device(device);
  log(obs::EventType::DeviceDegraded, job, device, attempt, 0, t_sim_us);
  if (d.degraded) return;
  d.degraded = true;
  d.degraded_since = std::chrono::steady_clock::now();
}

void FleetMetrics::on_healed(int device, double t_sim_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = this->device(device);
  log(obs::EventType::DeviceHealed, 0, device, 0, 0, t_sim_us);
  if (!d.degraded) return;
  d.degraded = false;
  d.degraded_us += Micros(std::chrono::steady_clock::now() - d.degraded_since).count();
}

void FleetMetrics::on_shed(std::uint64_t job, const std::string& tenant, ShedReason reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++live_.jobs_submitted;
  ++live_.jobs_shed;
  Snapshot::TenantSnapshot& t = tenants_[tenant];
  ++t.submitted;
  ++t.shed;
  log(obs::EventType::JobShed, job, -1, 0, static_cast<std::int64_t>(reason), 0.0);
}

void FleetMetrics::on_preempted(std::uint64_t job, int from, int to, int attempt,
                                int next_frame, double t_sim_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  device(from).running = 0;
  // The displaced job sits in the target's queue until re-dispatched.
  enqueue(device(to));
  ++live_.preemptions;
  log(obs::EventType::JobPreempted, job, from, attempt, next_frame, t_sim_us);
}

void FleetMetrics::on_steal(std::uint64_t job, int from, int to, int attempt, double t_sim_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  --device(from).queue_depth;
  enqueue(device(to));
  ++live_.steals;
  log(obs::EventType::JobStolen, job, to, attempt, from, t_sim_us);
}

void FleetMetrics::on_batch(std::uint64_t leader, int device, int size, double t_sim_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  (void)this->device(device);  // bounds check only
  ++live_.batches_formed;
  live_.jobs_batched += size;
  live_.batch_size_hist.record(static_cast<double>(size));
  log(obs::EventType::BatchFormed, leader, device, 0, size, t_sim_us);
}

void FleetMetrics::on_alerts(const std::vector<obs::AlertTransition>& transitions,
                             std::size_t active) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const obs::AlertTransition& t : transitions) {
    log(t.raised ? obs::EventType::AlertRaised : obs::EventType::AlertCleared, 0, -1, 0,
        static_cast<std::int64_t>(t.kind), 0.0);
  }
  live_.active_alerts = static_cast<std::int64_t>(active);
}

void FleetMetrics::set_elapsed_real_us(double us) {
  std::lock_guard<std::mutex> lock(mutex_);
  live_.elapsed_real_us = us;
}

void FleetMetrics::set_allocator_stats(int device, const CachingDeviceAllocator::Stats& stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceState& d = this->device(device);
  d.has_allocator = true;
  d.allocator = stats;
}

void FleetMetrics::set_build_info(std::string sha, std::string backend_opts) {
  std::lock_guard<std::mutex> lock(mutex_);
  live_.build_sha = std::move(sha);
  live_.build_backend_opts = std::move(backend_opts);
}

FleetMetrics::Snapshot FleetMetrics::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot s = live_;
  if (events_ != nullptr) s.events_dropped = static_cast<std::int64_t>(events_->dropped());
  for (const auto& [tenant, t] : tenants_) {
    s.tenants.push_back(t);
    s.tenants.back().tenant = tenant;
  }
  const auto now = std::chrono::steady_clock::now();
  for (const DeviceState& d : devices_) {
    DeviceSnapshot& ds = s.devices.emplace_back(d);  // the open intervals added below
    if (d.degraded) {
      ds.degraded_us += Micros(now - d.degraded_since).count();
      ++s.degraded_devices;
    }
    if (d.active) {
      ds.active_us += Micros(now - d.active_since).count();
      ++s.active_devices;
    }
    s.device_seconds += ds.active_us / 1e6;
    if (d.has_allocator) s.alloc_cap_evictions += d.allocator.cap_evictions;
    s.sim_makespan_us = std::max(s.sim_makespan_us, d.sim_clock_us);
  }
  for (DeviceSnapshot& ds : s.devices) {
    ds.utilization = s.sim_makespan_us > 0 ? ds.busy_sim_us / s.sim_makespan_us : 0.0;
  }
  const auto frames = static_cast<double>(s.frames_completed);
  if (s.sim_makespan_us > 0) s.throughput_fps_sim = frames / (s.sim_makespan_us / 1e6);
  if (s.elapsed_real_us > 0) s.throughput_fps_real = frames / (s.elapsed_real_us / 1e6);
  s.latency_p50_us = s.latency_hist.percentile(0.50);
  s.latency_p95_us = s.latency_hist.percentile(0.95);
  s.latency_p99_us = s.latency_hist.percentile(0.99);
  s.latency_max_us = s.latency_hist.max();
  s.latency_mean_us = s.latency_hist.mean();
  s.sim_job_p50_us = s.sim_job_hist.percentile(0.50);
  s.sim_job_p99_us = s.sim_job_hist.percentile(0.99);
  s.max_batch_size = static_cast<std::int64_t>(s.batch_size_hist.max());
  return s;
}

namespace {
using Snap = FleetMetrics::Snapshot;

/// One fleet counter or gauge, declared once: the JSON export, the
/// Prometheus exposition and the report's summary lines all render it
/// from this row.
struct FleetScalar {
  std::string_view group;  ///< JSON object holding the key ("" = top level)
  const char* key;         ///< JSON key; nullptr = exposition only
  const char* prom;        ///< Prometheus family; nullptr = JSON only
  const char* type;        ///< Prometheus type
  const char* help;        ///< Prometheus help text
  std::variant<std::int64_t Snap::*, double Snap::*> field;
  std::string_view line = {};   ///< report line listing it ("" = none)
  const char* label = nullptr;  ///< what the report line calls it
};

// clang-format off
const FleetScalar kScalars[] = {
    {"", "jobs_submitted", "saclo_jobs_submitted_total", "counter",
     "Jobs accepted by the runtime.", &Snap::jobs_submitted},
    {"", "jobs_completed", "saclo_jobs_completed_total", "counter",
     "Jobs whose future resolved.", &Snap::jobs_completed},
    {"", "frames_completed", "saclo_frames_completed_total", "counter",
     "Frames across completed jobs.", &Snap::frames_completed},
    {"health", "device_faults", "saclo_device_faults_total", "counter",
     "Injected device faults observed fleet-wide.", &Snap::device_faults,
     "health", "device fault(s)"},
    {"health", "failovers", "saclo_failovers_total", "counter",
     "Retries that moved device.", &Snap::failovers, "health", "failover(s)"},
    {"health", "retries", "saclo_retries_total", "counter",
     "Faulted jobs re-enqueued.", &Snap::retries, "health", "retry(s)"},
    {"", "jobs_failed", "saclo_jobs_failed_total", "counter",
     "Jobs that exhausted retries (future carries an exception).", &Snap::jobs_failed,
     "health", "failed job(s)"},
    {"health", "degraded_devices", "saclo_degraded_devices", "gauge",
     "Devices currently marked degraded.", &Snap::degraded_devices,
     "health", "degraded device(s)"},
    {"health", "buffers_reclaimed", "saclo_buffers_reclaimed_total", "counter",
     "Allocator blocks swept back after faults.", &Snap::buffers_reclaimed},
    {"batching", "batches_formed", "saclo_batches_formed_total", "counter",
     "Dispatches that coalesced two or more jobs.", &Snap::batches_formed},
    {"batching", "jobs_batched", "saclo_jobs_batched_total", "counter",
     "Jobs that rode in a coalesced batch.", &Snap::jobs_batched},
    {"batching", "max_batch_size", nullptr, nullptr, nullptr, &Snap::max_batch_size},
    {"scheduling", "jobs_shed", "saclo_jobs_shed_total", "counter",
     "Submissions refused by admission control or load shedding.", &Snap::jobs_shed,
     "scheduling", "shed"},
    {"scheduling", "preemptions", "saclo_preemptions_total", "counter",
     "In-flight jobs displaced at a frame boundary.", &Snap::preemptions,
     "scheduling", "preemption(s)"},
    {"scheduling", "steals", "saclo_steals_total", "counter",
     "Queued jobs moved to an idle dispatcher.", &Snap::steals, "scheduling", "steal(s)"},
    {"scheduling", "deadline_misses", "saclo_deadline_misses_total", "counter",
     "Jobs completed past their SLO deadline.", &Snap::deadline_misses,
     "scheduling", "deadline miss(es)"},
    {"autoscale", "scale_ups", "saclo_scale_ups_total", "counter",
     "Devices activated by the autoscaler.", &Snap::scale_ups},
    {"autoscale", "scale_downs", "saclo_scale_downs_total", "counter",
     "Graceful device drains started.", &Snap::scale_downs},
    {"autoscale", "jobs_rehomed", "saclo_jobs_rehomed_total", "counter",
     "Queued jobs moved off draining devices.", &Snap::jobs_rehomed},
    {"autoscale", "active_devices", "saclo_active_devices", "gauge",
     "Devices currently placement-eligible.", &Snap::active_devices},
    {"autoscale", "device_seconds", "saclo_device_seconds_total", "counter",
     "Sum over devices of real seconds spent active.", &Snap::device_seconds},
    {"autoscale", "alloc_cap_evictions", "saclo_alloc_cap_evictions_total", "counter",
     "Allocator blocks evicted by the per-size-class cache cap, fleet-wide.",
     &Snap::alloc_cap_evictions},
    {"", "sim_makespan_us", "saclo_sim_makespan_us", "gauge",
     "Fleet simulated makespan (max device clock), microseconds.", &Snap::sim_makespan_us},
    {"", "throughput_fps_sim", "saclo_throughput_fps_sim", "gauge",
     "Frames per second of simulated device time.", &Snap::throughput_fps_sim},
    {"", "throughput_fps_real", "saclo_throughput_fps_real", "gauge",
     "Frames per second of real wall clock.", &Snap::throughput_fps_real},
    {"", nullptr, "saclo_events_dropped_total", "counter",
     "Structured events rejected because the event ring was full.", &Snap::events_dropped},
    {"", nullptr, "saclo_alerts_active", "gauge", "Alerts currently firing.",
     &Snap::active_alerts},
};
// clang-format on

std::string value(const Snap& s, const FleetScalar& m) {
  if (const auto* count = std::get_if<std::int64_t Snap::*>(&m.field)) {
    return std::to_string(s.**count);
  }
  return fixed(s.*std::get<double Snap::*>(m.field), 3);
}

/// The distinct values of one column, in table order.
std::vector<std::string_view> distinct(std::string_view FleetScalar::*column) {
  std::vector<std::string_view> out;
  for (const FleetScalar& m : kScalars) {
    if (std::find(out.begin(), out.end(), m.*column) == out.end()) out.push_back(m.*column);
  }
  return out;
}
}  // namespace

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
  for (std::string_view line : distinct(&FleetScalar::line)) {
    if (line.empty()) continue;
    out += cat(line, ":");
    const char* sep = " ";
    for (const FleetScalar& m : kScalars) {
      if (m.line != line) continue;
      out += cat(sep, value(s, m), " ", m.label);
      sep = ", ";
    }
    out += "\n";
  }
  if (s.scale_ups > 0 || s.scale_downs > 0 ||
      s.active_devices != static_cast<std::int64_t>(s.devices.size())) {
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
               " jobs coalesced, max size ", s.max_batch_size, "\n");
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
  std::string out = cat("{\"devices\":", s.devices.size());
  for (std::string_view group : distinct(&FleetScalar::group)) {
    if (!group.empty()) out += cat(",\"", group, "\":{");
    const char* sep = group.empty() ? "," : "";
    for (const FleetScalar& m : kScalars) {
      if (m.key == nullptr || m.group != group) continue;
      out += cat(sep, "\"", m.key, "\":", value(s, m));
      sep = ",";
    }
    if (!group.empty()) out += "}";
  }
  out += cat(
      ",\"elapsed_real_us\":", fixed(s.elapsed_real_us, 1),
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
  // Appends a family's HELP and TYPE lines and returns its name, for
  // the sample lines that follow.
  const auto family = [&out](const char* name, const char* type, const char* help) {
    out += cat("# HELP ", name, " ", help, "\n# TYPE ", name, " ", type, "\n");
    return name;
  };
  if (!s.build_sha.empty() || !s.build_backend_opts.empty()) {
    out += cat(family("saclo_build_info", "gauge",
                      "Build identity (constant 1; the labels carry the data)."),
               "{sha=\"", prom_escape_label_value(s.build_sha), "\",backend_opts=\"",
               prom_escape_label_value(s.build_backend_opts), "\"} 1\n");
  }
  for (const FleetScalar& m : kScalars) {
    if (m.prom != nullptr) out += cat(family(m.prom, m.type, m.help), " ", value(s, m), "\n");
  }
  const char* name = family("saclo_device_jobs_total", "counter", "Jobs completed per device.");
  for (const DeviceSnapshot& d : s.devices) {
    out += cat(name, "{device=\"", d.device, "\"} ", d.jobs, "\n");
  }
  name = family("saclo_device_utilization", "gauge",
                "Busy share of the fleet makespan per device.");
  for (const DeviceSnapshot& d : s.devices) {
    out += cat(name, "{device=\"", d.device, "\"} ", fixed(d.utilization, 4), "\n");
  }
  if (!s.tenants.empty()) {
    name = family("saclo_tenant_slo_attainment", "gauge",
                  "Share of a tenant's deadline jobs completed within their SLO.");
    for (const Snapshot::TenantSnapshot& t : s.tenants) {
      out += cat(name, "{tenant=\"", prom_escape_label_value(t.tenant), "\"} ",
                 fixed(t.slo_attainment(), 4), "\n");
    }
    name = family("saclo_tenant_jobs_shed_total", "counter", "Submissions shed per tenant.");
    for (const Snapshot::TenantSnapshot& t : s.tenants) {
      out += cat(name, "{tenant=\"", prom_escape_label_value(t.tenant), "\"} ", t.shed, "\n");
    }
  }
  obs::append_prometheus_histogram(out, "saclo_job_latency_us",
                                   "Real end-to-end job latency (submit to completion).",
                                   s.latency_hist);
  obs::append_prometheus_histogram(out, "saclo_job_sim_us",
                                   "Simulated device time per completed job.", s.sim_job_hist);
  obs::append_prometheus_histogram(out, "saclo_batch_size",
                                   "Sizes of coalesced batches (>= 2).", s.batch_size_hist);
  name = family("saclo_class_latency_us", "histogram",
                "Real end-to-end job latency split by priority class.");
  for (std::size_t cls = 0; cls < s.class_latency_hist.size(); ++cls) {
    obs::append_prometheus_histogram_samples(
        out, name, s.class_latency_hist[cls],
        cat("class=\"", prom_escape_label_value(priority_name(static_cast<Priority>(cls))),
            "\""));
  }
  return out;
}

}  // namespace saclo::serve
