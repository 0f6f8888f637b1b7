#include "serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/fmt.hpp"
#include "gpu/backend.hpp"
#include "gpu/backend_kind.hpp"
#include "obs/export.hpp"

// Baked in by the build (src/serve/CMakeLists.txt); the fallback keeps
// non-CMake compiles working.
#ifndef SACLO_GIT_SHA
#define SACLO_GIT_SHA "unknown"
#endif

namespace saclo::serve {

namespace {
double us_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double us_since_epoch(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t.time_since_epoch()).count();
}
}  // namespace

namespace {
int fleet_slots(const ServeRuntime::Options& options) {
  return std::max(1, std::max(options.devices, options.max_devices));
}
}  // namespace

ServeRuntime::ServeRuntime(const Options& options)
    : options_(options), metrics_(fleet_slots(options)) {
  if (options_.devices <= 0) {
    throw ServeError(cat("fleet needs at least one device, got ", options_.devices));
  }
  if (options_.max_devices != 0 && options_.max_devices < options_.devices) {
    throw ServeError(cat("max_devices ", options_.max_devices, " is below devices ",
                         options_.devices, " — the elastic range is [1, max_devices]"));
  }
  if (options_.warmup_ms < 0) {
    throw ServeError(cat("warmup_ms must be >= 0, got ", options_.warmup_ms));
  }
  if (options_.alloc_class_cap_bytes < 0) {
    throw ServeError(
        cat("alloc_class_cap_bytes must be >= 0, got ", options_.alloc_class_cap_bytes));
  }
  if (options_.queue_capacity == 0) {
    throw ServeError("queue_capacity must be positive");
  }
  if (options_.max_retries < 0) {
    throw ServeError(cat("max_retries must be >= 0, got ", options_.max_retries));
  }
  if (options_.batch_max < 1) {
    throw ServeError(cat("batch_max must be >= 1, got ", options_.batch_max));
  }
  if (options_.batch_wait_ms < 0) {
    throw ServeError(cat("batch_wait_ms must be >= 0, got ", options_.batch_wait_ms));
  }
  if (options_.tenant_rate_limit < 0) {
    throw ServeError(cat("tenant_rate_limit must be >= 0, got ", options_.tenant_rate_limit));
  }
  if (options_.tenant_rate_limit > 0 && options_.tenant_rate_burst < 1) {
    throw ServeError(
        cat("tenant_rate_burst must be >= 1 when rate limiting, got ",
            options_.tenant_rate_burst));
  }
  if (options_.telemetry_port > 65535) {
    throw ServeError(cat("telemetry_port must be <= 65535, got ", options_.telemetry_port));
  }
  const int slots = fleet_slots(options_);
  for (const fault::FaultSpec& spec : options_.fault_plan.specs()) {
    if (spec.device >= slots) {
      throw ServeError(cat("fault plan targets device ", spec.device, " but the fleet has ",
                           slots, " device slot(s)"));
    }
  }
  paused_ = options_.start_paused;
  if (options_.event_log_capacity > 0) {
    event_log_ = std::make_unique<obs::EventLog>(options_.event_log_capacity);
  }
  if (options_.tenant_rate_limit > 0) {
    admission_ = std::make_unique<AdmissionController>(options_.tenant_rate_limit,
                                                       options_.tenant_rate_burst);
  }
  devices_.reserve(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) {
    auto dev = std::make_unique<Device>();
    dev->gpu = std::make_unique<gpu::VirtualGpu>(options_.device, options_.workers_per_device,
                                                 options_.backend);
    dev->cache = std::make_unique<CachingDeviceAllocator>(dev->gpu->memory(),
                                                          options_.alloc_class_cap_bytes);
    dev->gpu->set_allocator(dev->cache.get());
    const std::vector<fault::FaultSpec> specs = options_.fault_plan.specs_for(i);
    if (!specs.empty()) {
      dev->injector = std::make_unique<fault::FaultInjector>(specs);
      dev->gpu->set_fault_injector(dev->injector.get());
    }
    // Spare elastic slots start retired: their dispatchers park in
    // work_ready_ (their queues can only fill after scale_up()).
    if (i >= options_.devices) {
      dev->state = DevState::Inactive;
      metrics_.set_active(i, false);
    }
    devices_.push_back(std::move(dev));
  }
  for (int i = 0; i < slots; ++i) {
    devices_[static_cast<std::size_t>(i)]->dispatcher =
        std::thread([this, i] { dispatcher_loop(i); });
  }
  {
    std::vector<std::string> names;
    for (gpu::BackendKind kind : gpu::available_backends()) {
      names.push_back(gpu::backend_kind_name(kind));
    }
    metrics_.set_build_info(SACLO_GIT_SHA, join(names, ","));
  }
  mount_telemetry();
}

ServeRuntime::~ServeRuntime() { shutdown(); }

void ServeRuntime::mount_telemetry() {
  if (options_.telemetry_port < 0) return;
  telemetry_ = std::make_unique<obs::TelemetryServer>(options_.telemetry_port);
  telemetry_->handle("/metrics", [this](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = metrics_prometheus();
    return r;
  });
  telemetry_->handle("/healthz", [this](const obs::HttpRequest&) {
    // Liveness: answering at all is the signal. The body carries the
    // barest vitals for a human curl.
    obs::HttpResponse r;
    r.body = cat("ok\nuptime_real_us ", fixed(trace_clock_.now_us(), 0), "\ninflight ",
                 inflight_jobs(), "\n");
    return r;
  });
  telemetry_->handle("/readyz", [this](const obs::HttpRequest&) {
    std::string why;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      int active = 0;
      int healthy = 0;
      for (const auto& dev : devices_) {
        if (dev->state != DevState::Active) continue;
        ++active;
        if (!dev->degraded) ++healthy;
      }
      if (stopping_) {
        why = "stopping";
      } else if (active == 0) {
        why = "no active devices";
      } else if (healthy == 0) {
        why = "all active devices degraded";
      } else if (total_inflight_ >= options_.queue_capacity) {
        why = cat("queue saturated (", total_inflight_, "/", options_.queue_capacity, ")");
      }
    }
    if (why.empty()) return obs::HttpResponse{200, "text/plain; charset=utf-8", "ready\n"};
    return obs::HttpResponse{503, "text/plain; charset=utf-8", cat("not ready: ", why, "\n")};
  });
  telemetry_->handle("/debug/events", [this](const obs::HttpRequest& request) {
    if (event_log_ == nullptr) {
      return obs::HttpResponse{404, "text/plain; charset=utf-8",
                               "event log disabled (event_log_capacity = 0)\n"};
    }
    const long n = request.query_long("n", 64);
    const std::vector<obs::Event> events = event_log_->snapshot();
    std::size_t start = 0;
    if (n >= 0 && events.size() > static_cast<std::size_t>(n)) {
      start = events.size() - static_cast<std::size_t>(n);
    }
    std::string body;
    for (std::size_t i = start; i < events.size(); ++i) {
      body += obs::event_json(events[i]);
      body += "\n";
    }
    return obs::HttpResponse{200, "application/x-ndjson", std::move(body)};
  });
  telemetry_->handle("/debug/trace", [this](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "application/json", merged_trace_json()};
  });
  telemetry_->handle("/debug/fleet", [this](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "application/json", metrics_json()};
  });
  telemetry_->start();
}

void ServeRuntime::on_alert_transitions(const std::vector<obs::AlertTransition>& transitions,
                                        std::size_t active_count) {
  for (const obs::AlertTransition& t : transitions) {
    emit(t.raised ? obs::EventType::AlertRaised : obs::EventType::AlertCleared, /*job=*/0,
         /*device=*/-1, /*attempt=*/0, static_cast<std::int64_t>(t.kind), /*t_sim_us=*/0.0);
  }
  metrics_.set_active_alerts(static_cast<int>(active_count));
}

void ServeRuntime::emit(obs::EventType type, std::uint64_t job, int device, int attempt,
                        std::int64_t arg, double t_sim_us) {
  if (event_log_ == nullptr) return;
  obs::Event event;
  event.type = type;
  event.backend = static_cast<std::uint8_t>(options_.backend);
  event.job = job;
  event.device = device;
  event.attempt = attempt;
  event.arg = arg;
  event.t_real_us = trace_clock_.now_us();
  event.t_sim_us = t_sim_us;
  event_log_->emit(event);
}

std::future<JobResult> ServeRuntime::shed_locked(JobSpec&& spec, ShedReason reason) {
  const std::uint64_t id = next_job_id_++;
  metrics_.on_shed(spec.tenant, reason);
  emit(obs::EventType::JobShed, id, /*device=*/-1, /*attempt=*/0,
       static_cast<std::int64_t>(reason), 0.0);
  // The typed Shed status: the future resolves right here — a shed
  // submission can never hang a caller waiting on it.
  std::promise<JobResult> promise;
  std::future<JobResult> future = promise.get_future();
  promise.set_exception(std::make_exception_ptr(ShedError(reason, spec.tenant)));
  return future;
}

std::optional<std::future<JobResult>> ServeRuntime::submit_impl(JobSpec spec, bool blocking) {
  spec.validate();
  if (options_.batch_max > 1 && spec.deadline_ms > 0 &&
      spec.deadline_ms <= options_.batch_wait_ms) {
    // The batcher may hold the job open for a full batch window — a
    // deadline inside it could expire before dispatch even starts.
    throw ServeError(cat("deadline_ms ", spec.deadline_ms, " is within one batch window (",
                         "batch_wait_ms ", options_.batch_wait_ms,
                         "): the job could expire while coalescing — lower batch_wait_ms or "
                         "raise the deadline"));
  }
  const double estimate = estimate_job_us(spec, options_.device);
  std::unique_lock<std::mutex> lock(mutex_);
  if (!stopping_ && admission_ != nullptr &&
      !admission_->admit(spec.tenant, std::chrono::steady_clock::now())) {
    return shed_locked(std::move(spec), ShedReason::RateLimited);
  }
  if (!stopping_ && options_.shed_on_full && total_inflight_ >= options_.queue_capacity) {
    return shed_locked(std::move(spec), ShedReason::QueueFull);
  }
  if (blocking) {
    space_available_.wait(lock, [&] { return total_inflight_ < options_.queue_capacity || stopping_; });
  }
  if (stopping_) {
    if (!blocking) return std::nullopt;
    throw ServeError("submit on a shut-down ServeRuntime");
  }
  if (total_inflight_ >= options_.queue_capacity) return std::nullopt;  // try_submit only

  // Least-loaded placement over healthy devices: the one with the
  // smallest outstanding cost-model backlog (queued + running).
  const std::size_t target = pick_device_locked(/*exclude=*/-1);

  Pending pending;
  pending.id = next_job_id_++;
  pending.spec = std::move(spec);
  pending.estimate_us = estimate;
  pending.submit_time = std::chrono::steady_clock::now();
  pending.ready_time = pending.submit_time;
  if (pending.spec.deadline_ms > 0) {
    pending.deadline_abs_us =
        us_since_epoch(pending.submit_time) + pending.spec.deadline_ms * 1000.0;
  }
  if (!started_serving_) {
    started_serving_ = true;
    serve_start_ = pending.submit_time;
  }
  std::future<JobResult> future = pending.promise.get_future();
  // Emit before the queue push (emit is lock-free, so holding mutex_ is
  // cheap): once the job is visible to a dispatcher, its job_dispatched
  // could otherwise overtake these in the ring.
  emit(obs::EventType::JobAdmitted, pending.id, /*device=*/-1, /*attempt=*/0,
       pending.spec.frames, 0.0);
  emit(obs::EventType::JobPlaced, pending.id, static_cast<int>(target), /*attempt=*/0,
       static_cast<std::int64_t>(std::llround(estimate)), 0.0);
  const Priority priority = pending.spec.priority;
  metrics_.on_submit(static_cast<int>(target), pending.spec.tenant);
  devices_[target]->queue.push_back(std::move(pending));
  devices_[target]->backlog_estimate_us += estimate;
  ++total_queued_;
  ++total_inflight_;
  signal_preempt_locked(target, priority);
  lock.unlock();
  work_ready_.notify_all();
  return future;
}

std::future<JobResult> ServeRuntime::submit(JobSpec spec) {
  auto future = submit_impl(std::move(spec), /*blocking=*/true);
  return std::move(*future);
}

std::optional<std::future<JobResult>> ServeRuntime::try_submit(JobSpec spec) {
  return submit_impl(std::move(spec), /*blocking=*/false);
}

void ServeRuntime::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_ready_.notify_all();
}

void ServeRuntime::drain() {
  resume();
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return total_inflight_ == 0; });
}

void ServeRuntime::shutdown() {
  // Stop serving scrapes before tearing the fleet down: no handler can
  // be mid-read while dispatchers join and devices retire.
  if (telemetry_) telemetry_->stop();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // Idempotent: a second call only waits for the joins below.
    }
    stopping_ = true;
    paused_ = false;
  }
  work_ready_.notify_all();
  space_available_.notify_all();
  drain_done_.notify_all();  // unblock a scale_down() mid-wait
  for (auto& dev : devices_) {
    if (dev->dispatcher.joinable()) dev->dispatcher.join();
  }
}

void ServeRuntime::heal_elapsed_locked() {
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    Device& dev = *devices_[i];
    if (options_.degraded_cooldown_ms >= 0 && dev.degraded &&
        us_between(dev.degraded_since, now) >= options_.degraded_cooldown_ms * 1000.0) {
      dev.degraded = false;
      metrics_.on_healed(static_cast<int>(i));
      emit(obs::EventType::DeviceHealed, /*job=*/0, static_cast<int>(i), /*attempt=*/0,
           /*arg=*/0, dev.gpu->clock_us());
    }
    // Warm-up rides the same lazy sweep as degraded cooldowns: a fresh
    // scale-up graduates into full placement once its window elapsed.
    if (dev.warming && us_between(dev.warm_since, now) >= options_.warmup_ms * 1000.0) {
      dev.warming = false;
    }
  }
}

std::size_t ServeRuntime::pick_device_locked(int exclude) {
  heal_elapsed_locked();
  std::optional<std::size_t> best;
  const auto consider = [&](bool allow_impaired, bool allow_excluded) {
    for (std::size_t i = 0; i < devices_.size(); ++i) {
      // Only active slots ever take placements: inactive ones have no
      // work loop to speak of, draining ones are on their way out.
      if (devices_[i]->state != DevState::Active) continue;
      if (!allow_impaired && (devices_[i]->degraded || devices_[i]->warming)) continue;
      if (!allow_excluded && exclude >= 0 && i == static_cast<std::size_t>(exclude)) continue;
      if (!best || devices_[i]->backlog_estimate_us < devices_[*best]->backlog_estimate_us) {
        best = i;
      }
    }
  };
  consider(/*allow_impaired=*/false, /*allow_excluded=*/false);
  // Whole fleet degraded (or still warming): still serve — a one-shot
  // fault's device works again, and a permanently broken one burns the
  // job's retry budget.
  if (!best) consider(/*allow_impaired=*/true, /*allow_excluded=*/false);
  if (!best) consider(/*allow_impaired=*/true, /*allow_excluded=*/true);  // 1-device fleet
  return *best;
}

int ServeRuntime::active_devices_locked() const {
  int n = 0;
  for (const auto& dev : devices_) {
    if (dev->state == DevState::Active) ++n;
  }
  return n;
}

int ServeRuntime::active_devices() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_devices_locked();
}

bool ServeRuntime::device_active(int device) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return devices_.at(static_cast<std::size_t>(device))->state == DevState::Active;
}

int ServeRuntime::scale_up() {
  if (options_.max_devices <= 0) {
    throw ServeError("scale_up on a fixed fleet (construct with max_devices > 0)");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) throw ServeError("scale_up on a shut-down ServeRuntime");
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    Device& dev = *devices_[i];
    if (dev.state != DevState::Inactive) continue;
    dev.state = DevState::Active;
    if (options_.warmup_ms > 0) {
      dev.warming = true;
      dev.warm_since = std::chrono::steady_clock::now();
    }
    metrics_.on_scale_up(static_cast<int>(i));
    emit(obs::EventType::ScaleUp, /*job=*/0, static_cast<int>(i), /*attempt=*/0,
         active_devices_locked(), dev.gpu->clock_us());
    lock.unlock();
    work_ready_.notify_all();
    return static_cast<int>(i);
  }
  throw ServeError(
      cat("scale_up: every slot is already active or draining (max_devices ",
          options_.max_devices, ")"));
}

int ServeRuntime::scale_down(int device) {
  if (options_.max_devices <= 0) {
    throw ServeError("scale_down on a fixed fleet (construct with max_devices > 0)");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) throw ServeError("scale_down on a shut-down ServeRuntime");
  if (active_devices_locked() <= 1) {
    throw ServeError("scale_down would leave the fleet without an active device");
  }
  std::size_t victim;
  if (device >= 0) {
    if (static_cast<std::size_t>(device) >= devices_.size()) {
      throw ServeError(cat("scale_down: device ", device, " out of range (fleet has ",
                           devices_.size(), " slot(s))"));
    }
    if (devices_[static_cast<std::size_t>(device)]->state != DevState::Active) {
      throw ServeError(cat("scale_down: device ", device, " is not active"));
    }
    victim = static_cast<std::size_t>(device);
  } else {
    // Cheapest drain: the active device with the smallest outstanding
    // cost-model backlog.
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < devices_.size(); ++i) {
      if (devices_[i]->state != DevState::Active) continue;
      if (!best || devices_[i]->backlog_estimate_us < devices_[*best]->backlog_estimate_us) {
        best = i;
      }
    }
    victim = *best;  // >= 2 active devices checked above
  }

  Device& dev = *devices_[victim];
  dev.state = DevState::Draining;
  dev.warming = false;
  // The gate stops the running job at its next frame boundary; the
  // dispatcher then re-homes it through the preemption re-enqueue path.
  dev.drain_flag.store(true, std::memory_order_relaxed);

  // Re-home everything still queued — in-backoff retries included, with
  // their ready_time gates intact (the target honors them). Zero jobs
  // lost, zero duplicated: each Pending moves exactly once, promise,
  // progress and all.
  int rehomed = 0;
  while (!dev.queue.empty()) {
    Pending job = std::move(dev.queue.front());
    dev.queue.pop_front();
    dev.backlog_estimate_us -= job.estimate_us;
    const Priority prio = job.spec.priority;
    const std::size_t target = pick_device_locked(/*exclude=*/-1);  // never Draining
    devices_[target]->backlog_estimate_us += job.estimate_us;
    metrics_.on_rehomed(static_cast<int>(victim), static_cast<int>(target));
    devices_[target]->queue.push_back(std::move(job));
    signal_preempt_locked(target, prio);
    ++rehomed;
  }
  metrics_.on_drain_started(static_cast<int>(victim), rehomed);
  emit(obs::EventType::DrainStarted, /*job=*/0, static_cast<int>(victim), /*attempt=*/0,
       rehomed, dev.gpu->clock_us());
  work_ready_.notify_all();  // wake the victim (to retire) and the targets

  drain_done_.wait(lock, [&] { return dev.state == DevState::Inactive || stopping_; });
  if (dev.state != DevState::Inactive) {
    throw ServeError("scale_down interrupted by shutdown");
  }
  emit(obs::EventType::ScaleDown, /*job=*/0, static_cast<int>(victim), /*attempt=*/0,
       active_devices_locked(), dev.gpu->clock_us());
  return static_cast<int>(victim);
}

SchedKey ServeRuntime::sched_key(const Pending& pending) const {
  SchedKey key;
  key.priority = pending.spec.priority;
  key.deadline_us = pending.deadline_abs_us;
  key.seq = pending.id;
  return key;
}

void ServeRuntime::signal_preempt_locked(std::size_t device, Priority priority) {
  if (options_.policy == SchedPolicy::Fifo || !options_.preemption) return;
  Device& dev = *devices_[device];
  if (static_cast<int>(priority) < dev.running_class.load(std::memory_order_relaxed)) {
    dev.preempt_flag.store(true, std::memory_order_relaxed);
  }
}

bool ServeRuntime::steal_into_locked(int thief) {
  // Victim: the busy peer with the deepest queue. The thief's own queue
  // is empty — that's why it steals. A peer whose dispatcher is idle is
  // about to run its own queue, so taking from it only races its own
  // pickup. Backing-off (retried) entries are stealable too: they keep
  // their ready_time, and the thief's normal soonest-wait honors it — an
  // idle thief parked in work_ready_ would otherwise never wake when a
  // victim-side backoff elapses.
  int victim = -1;
  std::size_t victim_depth = 0;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (static_cast<int>(i) == thief) continue;
    if (devices_[i]->state != DevState::Active) continue;  // draining queues are spoken for
    if (devices_[i]->running_class.load(std::memory_order_relaxed) == kIdleClass) continue;
    const std::size_t n = devices_[i]->queue.size();
    if (n > victim_depth) {
      victim = static_cast<int>(i);
      victim_depth = n;
    }
  }
  if (victim < 0) return false;
  Device& self = *devices_[static_cast<std::size_t>(thief)];
  Device& from = *devices_[static_cast<std::size_t>(victim)];
  // Take the policy-worst half (at least one): the victim keeps the
  // jobs it would run first, so stealing never inverts its priorities.
  const std::size_t take = std::max<std::size_t>(1, victim_depth / 2);
  for (std::size_t k = 0; k < take; ++k) {
    auto worst = from.queue.end();
    for (auto it = from.queue.begin(); it != from.queue.end(); ++it) {
      if (worst == from.queue.end() ||
          schedules_before(options_.policy, sched_key(*worst), sched_key(*it))) {
        worst = it;
      }
    }
    if (worst == from.queue.end()) break;
    Pending stolen = std::move(*worst);
    from.queue.erase(worst);
    from.backlog_estimate_us -= stolen.estimate_us;
    self.backlog_estimate_us += stolen.estimate_us;
    metrics_.on_steal(victim, thief);
    emit(obs::EventType::JobStolen, stolen.id, thief, stolen.attempts,
         static_cast<std::int64_t>(victim), self.gpu->clock_us());
    self.queue.push_back(std::move(stolen));
  }
  return true;
}

bool ServeRuntime::device_degraded(int device) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return devices_.at(static_cast<std::size_t>(device))->degraded;
}

void ServeRuntime::finish_job(Device& dev, double estimate_us) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dev.backlog_estimate_us -= estimate_us;
    --total_inflight_;
    if (total_inflight_ == 0) idle_.notify_all();
  }
  space_available_.notify_all();
}

std::size_t ServeRuntime::queued_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_queued_;
}

std::size_t ServeRuntime::inflight_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_inflight_;
}

CachingDeviceAllocator::Stats ServeRuntime::allocator_stats(int device) const {
  return devices_.at(static_cast<std::size_t>(device))->cache->stats();
}

double ServeRuntime::device_sim_clock_us(int device) const {
  // The clock is only advanced by the dispatcher; reading a stale value
  // while a job runs is fine for reporting, but tests call this after
  // drain(), when the dispatcher is parked.
  return devices_.at(static_cast<std::size_t>(device))->gpu->clock_us();
}

std::string ServeRuntime::device_trace_json(int device) const {
  return obs::merged_chrome_trace({device_traces().at(static_cast<std::size_t>(device))}, {});
}

void ServeRuntime::refresh_allocator_stats() {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    metrics_.set_allocator_stats(static_cast<int>(i), devices_[i]->cache->stats());
  }
}

std::string ServeRuntime::report() {
  refresh_allocator_stats();
  return metrics_.report();
}

std::string ServeRuntime::metrics_json() {
  refresh_allocator_stats();
  return metrics_.json();
}

std::string ServeRuntime::metrics_prometheus() {
  refresh_allocator_stats();
  if (event_log_ != nullptr) metrics_.set_events_dropped(event_log_->dropped());
  return metrics_.prometheus();
}

std::string ServeRuntime::events_jsonl() const {
  return event_log_ != nullptr ? event_log_->jsonl() : std::string();
}

std::vector<obs::Event> ServeRuntime::events() const {
  return event_log_ != nullptr ? event_log_->snapshot() : std::vector<obs::Event>{};
}

std::vector<obs::DeviceTrace> ServeRuntime::device_traces() const {
  // intervals_snapshot() copies under the profiler's recording lock, so
  // this is safe mid-run — the live /debug/trace endpoint and the
  // critical-path analyzer both go through here.
  std::vector<obs::DeviceTrace> traces;
  traces.reserve(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    traces.push_back({static_cast<int>(i), devices_[i]->gpu->profiler().intervals_snapshot(),
                      devices_[i]->gpu->backend_name()});
  }
  return traces;
}

std::string ServeRuntime::merged_trace_json() const {
  const std::vector<obs::Event> events =
      event_log_ != nullptr ? event_log_->snapshot() : std::vector<obs::Event>{};
  return obs::merged_chrome_trace(device_traces(), events);
}

JobResult ServeRuntime::run_job(Device& dev, int index, Pending& pending, bool flush,
                                const apps::FrameGate& gate) {
  const auto dispatch_time = std::chrono::steady_clock::now();
  const JobSpec& spec = pending.spec;
  JobResult result;
  result.id = pending.id;
  result.device = index;
  result.attempts = pending.attempts;
  result.route = spec.route;
  result.frames = spec.frames;
  result.queue_wait_us = us_between(pending.submit_time, dispatch_time);
  result.tenant = spec.tenant;
  result.priority = spec.priority;
  result.deadline_us = spec.deadline_ms * 1000.0;
  const int first_frame = pending.next_frame;

  // Compiled drivers live for the dispatcher's lifetime, keyed by
  // (route, geometry): repeat traffic skips parse/typecheck/plan and
  // goes straight to the frame loop.
  thread_local std::map<std::string, std::unique_ptr<apps::SacDownscaler>> sac_drivers;
  thread_local std::map<std::string, std::unique_ptr<apps::GaspardDownscaler>> gaspard_drivers;

  // Per-frame progress events. The std::function (and its capture
  // allocation) is only materialized when the event log is on; the
  // disabled path hands the pipelines an empty callback, costing one
  // branch per frame and zero allocations.
  apps::FrameCallback on_frame;
  if (event_log_ != nullptr) {
    gpu::VirtualGpu* gpu = dev.gpu.get();
    const std::uint64_t job_id = pending.id;
    const int attempt = pending.attempts;
    on_frame = [this, gpu, job_id, attempt, index](int frame) {
      emit(obs::EventType::FrameDone, job_id, index, attempt, frame, gpu->clock_us());
    };
  }

  const int exec = spec.effective_exec_frames();
  if (spec.route == Route::Gaspard) {
    // The cache key is the batch key: it folds in the optimizer level,
    // so opt-level-0 and fused drivers of the same geometry coexist.
    const std::string key = batch_key(spec);
    auto it = gaspard_drivers.find(key);
    if (it == gaspard_drivers.end()) {
      apps::GaspardDownscaler::Options opts;
      opts.device = options_.device;
      opts.workers = options_.workers_per_device;
      opts.rgb = spec.channels == 3;
      opts.async_streams = options_.async_streams;
      opts.opt_level = spec.opt_level;
      it = gaspard_drivers
               .emplace(key, std::make_unique<apps::GaspardDownscaler>(spec.config, opts))
               .first;
    }
    auto r = it->second->run_on(*dev.gpu, spec.frames, exec, on_frame, flush, first_frame, gate);
    pending.ops_done += r.h;
    pending.ops_done += r.v;
    pending.sim_wall_done_us += r.wall_us;
    // Keep the newest executed frame across chunks (a resumed chunk
    // past exec_frames runs simulated-only and produces no output).
    if (first_frame < std::min(r.next_frame, exec)) {
      pending.partial_output = std::move(r.last_output);
    }
    pending.next_frame = r.next_frame;
  } else {
    const std::string key = driver_key(spec.route, spec.config);
    auto it = sac_drivers.find(key);
    if (it == sac_drivers.end()) {
      apps::SacDownscaler::Options opts;
      opts.generic = spec.route == Route::SacGeneric;
      opts.device = options_.device;
      opts.host = options_.host;
      opts.workers = options_.workers_per_device;
      opts.async_streams = options_.async_streams;
      it = sac_drivers.emplace(key, std::make_unique<apps::SacDownscaler>(spec.config, opts))
               .first;
    }
    auto r = it->second->run_cuda_chain_on(*dev.gpu, spec.frames, spec.channels, exec, on_frame,
                                           flush, first_frame, gate);
    pending.ops_done += r.h;
    pending.ops_done += r.v;
    pending.sim_wall_done_us += r.wall_us;
    if (first_frame < std::min(r.next_frame, exec)) {
      pending.partial_output = std::move(r.last_output);
    }
    pending.next_frame = r.next_frame;
  }

  // The result always reports the whole job so far — every completed
  // chunk of a preempted job, not just this dispatch.
  const auto done_time = std::chrono::steady_clock::now();
  pending.exec_done_us += us_between(dispatch_time, done_time);
  result.ops = pending.ops_done;
  result.sim_wall_us = pending.sim_wall_done_us;
  result.exec_us = pending.exec_done_us;
  result.latency_us = us_between(pending.submit_time, done_time);
  result.preemptions = pending.preemptions;
  result.slo_met = result.deadline_us <= 0 || result.latency_us <= result.deadline_us;
  if (pending.next_frame >= spec.frames) {
    result.last_output = std::move(pending.partial_output);
  }
  return result;
}

void ServeRuntime::dispatcher_loop(int index) {
  Device& dev = *devices_[static_cast<std::size_t>(index)];
  for (;;) {
    // The batch: a leader plus (with batch_max > 1) every same-key job
    // that was ready behind it, up to batch_max members.
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        if (stopping_ && dev.queue.empty()) return;
        if (dev.state == DevState::Draining && dev.queue.empty()) {
          // Drained: the re-homed jobs are gone, the gated (or last)
          // job finished its chunk. Sweep anything still live (zero on
          // a clean drain — the test invariant), release the parked
          // cache so a retired slot pins no device memory, and retire.
          const std::int64_t reclaimed = dev.cache->reclaim_live();
          dev.cache->trim();
          metrics_.set_allocator_stats(index, dev.cache->stats());
          dev.state = DevState::Inactive;
          dev.drain_flag.store(false, std::memory_order_relaxed);
          dev.warming = false;
          dev.running_class.store(kIdleClass, std::memory_order_relaxed);
          metrics_.on_drain_complete(index);
          emit(obs::EventType::DrainComplete, /*job=*/0, index, /*attempt=*/0, reclaimed,
               dev.gpu->clock_us());
          drain_done_.notify_all();
        }
        if (!paused_ || stopping_) {
          // The best queued job whose retry backoff has elapsed: under
          // Fifo, the first in queue order (exactly the pre-SLO
          // behavior); under priority/edf, the policy-best of the whole
          // ready set.
          const auto now = std::chrono::steady_clock::now();
          auto ready = dev.queue.end();
          auto soonest = dev.queue.end();
          for (auto it = dev.queue.begin(); it != dev.queue.end(); ++it) {
            if (it->ready_time <= now) {
              if (ready == dev.queue.end() ||
                  schedules_before(options_.policy, sched_key(*it), sched_key(*ready))) {
                ready = it;
              }
              if (options_.policy == SchedPolicy::Fifo) break;
            } else if (soonest == dev.queue.end() || it->ready_time < soonest->ready_time) {
              soonest = it;
            }
          }
          if (ready != dev.queue.end()) {
            // Selection commits the running class and clears any stale
            // preempt request — the selected job is the policy-best, so
            // nothing still queued outranks it; later arrivals re-raise
            // the flag under this same mutex.
            dev.running_class.store(static_cast<int>(ready->spec.priority),
                                    std::memory_order_relaxed);
            dev.preempt_flag.store(false, std::memory_order_relaxed);
            batch.push_back(std::move(*ready));
            dev.queue.erase(ready);
            // Busy with work still queued: this device just became a
            // steal victim, so wake the idle peers that skipped it.
            if (options_.work_stealing && !dev.queue.empty()) work_ready_.notify_all();
            break;
          }
          if (soonest != dev.queue.end()) {
            // Everything queued is still backing off; sleep to the
            // earliest gate (or an earlier notify). Copy the gate: a
            // drain may re-home the entry while this thread waits.
            const auto gate = soonest->ready_time;
            work_ready_.wait_until(lock, gate);
            continue;
          }
          if (options_.work_stealing && !stopping_ && !paused_ &&
              dev.state == DevState::Active && steal_into_locked(index)) {
            continue;  // re-run selection over the stolen work
          }
        }
        work_ready_.wait(lock);
      }
      if (options_.batch_max > 1) {
        // Coalesce: sweep ready same-key jobs behind the leader, and
        // optionally hold the underfull batch open for late arrivals.
        // Members leave dev.queue but stay counted in total_queued_
        // (and the queue-depth gauge) until they actually dispatch.
        const std::string key = batch_key(batch.front().spec);
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(
                static_cast<std::int64_t>(options_.batch_wait_ms * 1000.0));
        for (;;) {
          const auto now = std::chrono::steady_clock::now();
          for (auto it = dev.queue.begin();
               it != dev.queue.end() &&
               batch.size() < static_cast<std::size_t>(options_.batch_max);) {
            if (it->ready_time <= now && batch_key(it->spec) == key) {
              batch.push_back(std::move(*it));
              it = dev.queue.erase(it);
            } else {
              ++it;
            }
          }
          if (batch.size() >= static_cast<std::size_t>(options_.batch_max) || stopping_ ||
              options_.batch_wait_ms <= 0 || now >= deadline) {
            break;
          }
          work_ready_.wait_until(lock, deadline);
        }
      }
      --total_queued_;  // the leader; followers decrement when they run
      metrics_.on_dispatch(index);
    }
    space_available_.notify_all();

    // Frame-boundary preemption: the gate polls the preempt flag that
    // submit/failover/steal raise (under mutex_) when a strictly
    // higher-class job lands on this device. The pipelines only consult
    // it for frames past the chunk's first, so every dispatch makes at
    // least one frame of progress — no livelock, and a low job delays a
    // high one by at most one frame. On an elastic fleet the same gate
    // also watches the drain flag, so a scale-down stops the running
    // job at its next frame boundary regardless of policy. Coalesced
    // batches are never gated: their members share one fused dispatch
    // round (a drain waits for the bounded batch to finish instead).
    apps::FrameGate gate;
    const bool preemptable = options_.preemption && options_.policy != SchedPolicy::Fifo;
    if (batch.size() == 1 && (preemptable || options_.max_devices > 0)) {
      gate = [&dev, preemptable](int) {
        if (dev.drain_flag.load(std::memory_order_relaxed)) return false;
        return !preemptable || !dev.preempt_flag.load(std::memory_order_relaxed);
      };
    }

    const bool coalesced = batch.size() >= 2;
    const std::uint64_t batch_id = coalesced ? batch.front().id : 0;
    if (coalesced) {
      metrics_.on_batch(index, static_cast<int>(batch.size()));
      emit(obs::EventType::BatchFormed, batch.front().id, index, /*attempt=*/0,
           static_cast<std::int64_t>(batch.size()), dev.gpu->clock_us());
    }

    for (std::size_t member = 0; member < batch.size(); ++member) {
      Pending& pending = batch[member];
      const bool last = member + 1 == batch.size();
      if (member > 0) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          --total_queued_;
        }
        metrics_.on_dispatch(index);
        space_available_.notify_all();
      }
      const double estimate = pending.estimate_us;
      emit(obs::EventType::JobDispatched, pending.id, index, pending.attempts, /*arg=*/0,
           dev.gpu->clock_us());

      JobResult result;
      std::exception_ptr error;
      bool device_fault = false;
      // Bracket the job so every interval the device profiles carries
      // its trace id + attempt (+ batch id when coalesced) — the key
      // the merged Chrome trace joins on.
      dev.gpu->begin_job_trace(pending.id, static_cast<std::uint32_t>(pending.attempts),
                               batch_id);
      try {
        // Only the last member flushes the device: earlier members'
        // functional results are complete at enqueue, and the timeline
        // is ordered by buffer hazards either way — the whole batch is
        // one dispatch round on a warm driver, one barrier at the end.
        result = run_job(dev, index, pending, /*flush=*/last, gate);
      } catch (const fault::DeviceFault&) {
        device_fault = true;
        error = std::current_exception();
      } catch (...) {
        error = std::current_exception();
      }
      dev.gpu->end_job_trace();

      if (error == nullptr && pending.next_frame < pending.spec.frames) {
        // Stopped at a frame boundary — by a preempt request, or by the
        // drain flag of a scale-down. Either way the chunk flushed, so
        // the device is clean and the partial state in Pending
        // (next_frame, accumulated ops and partial output) resumes
        // bit-exactly on whichever device the re-enqueue lands on — the
        // same motion as a failover, minus the fault.
        const bool draining = dev.drain_flag.load(std::memory_order_relaxed);
        if (!draining) {
          ++pending.preemptions;
          emit(obs::EventType::JobPreempted, pending.id, index, pending.attempts,
               pending.next_frame, dev.gpu->clock_us());
        }
        {
          std::lock_guard<std::mutex> lock(mutex_);
          const Priority prio = pending.spec.priority;
          pending.ready_time = std::chrono::steady_clock::now();
          const std::size_t target = pick_device_locked(/*exclude=*/-1);
          dev.backlog_estimate_us -= estimate;
          devices_[target]->backlog_estimate_us += estimate;
          // A drain displacement is a re-home, not a preemption: the
          // job wasn't outranked, its device is leaving.
          if (draining) {
            metrics_.on_rehomed(index, static_cast<int>(target), /*queued=*/false);
          } else {
            metrics_.on_preempted(index, static_cast<int>(target));
          }
          devices_[target]->queue.push_back(std::move(pending));
          ++total_queued_;
          signal_preempt_locked(target, prio);
        }
        // The job stays inflight; the displacing high-class job is
        // already queued here and wins the next selection.
        work_ready_.notify_all();
        continue;
      }

      if (error == nullptr) {
        // Record before handing the result off through the promise.
        metrics_.on_complete(index, result, dev.gpu->clock_us());
        metrics_.set_allocator_stats(index, dev.cache->stats());
        {
          std::lock_guard<std::mutex> lock(mutex_);
          metrics_.set_elapsed_real_us(
              us_between(serve_start_, std::chrono::steady_clock::now()));
        }
        if (!result.slo_met) {
          emit(obs::EventType::DeadlineMiss, pending.id, index, pending.attempts,
               static_cast<std::int64_t>(
                   std::llround(result.latency_us - result.deadline_us)),
               dev.gpu->clock_us());
        }
        emit(obs::EventType::JobCompleted, pending.id, index, pending.attempts,
             pending.spec.frames, dev.gpu->clock_us());
        pending.promise.set_value(std::move(result));
        finish_job(dev, estimate);
        continue;
      }

      if (device_fault) {
        // The frame loop died mid-flight. Its RAII buffer owners unwound
        // back into the caching allocator already; sweep whatever is
        // still live so the device starts the next job leak-free. The
        // remaining batch members never ran (members execute strictly in
        // order), so they simply dispatch next — on this device, like
        // any job already committed to its queue.
        const std::int64_t reclaimed = dev.cache->reclaim_live();
        metrics_.on_device_fault(index, reclaimed);
        metrics_.set_allocator_stats(index, dev.cache->stats());
        // The injector's record of where it fired beats the device
        // clock: the faulted operation never ran, so the clock is the
        // time of the last *successful* op.
        const double fault_sim_us = dev.injector != nullptr
                                        ? dev.injector->last_fault_clock_us()
                                        : dev.gpu->clock_us();
        emit(obs::EventType::DeviceFault, pending.id, index, pending.attempts, reclaimed,
             fault_sim_us);

        bool retried = false;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (!dev.degraded) {
            dev.degraded = true;
            dev.degraded_since = std::chrono::steady_clock::now();
            metrics_.on_degraded(index);
            emit(obs::EventType::DeviceDegraded, pending.id, index, pending.attempts,
                 /*arg=*/0, dev.gpu->clock_us());
          }
          if (pending.attempts < options_.max_retries) {
            ++pending.attempts;
            const double backoff_ms =
                std::min(options_.retry_backoff_base_ms *
                             static_cast<double>(std::int64_t{1} << (pending.attempts - 1)),
                         options_.retry_backoff_cap_ms);
            pending.ready_time =
                std::chrono::steady_clock::now() +
                std::chrono::microseconds(static_cast<std::int64_t>(backoff_ms * 1000.0));
            const std::size_t target = pick_device_locked(/*exclude=*/index);
            // `device` is the faulted source; `attempt` is the hop the
            // retry will run as — together with arg (the target device)
            // this is exactly the flow arrow of the merged trace.
            emit(obs::EventType::Failover, pending.id, index, pending.attempts,
                 static_cast<std::int64_t>(target), dev.gpu->clock_us());
            const Priority prio = pending.spec.priority;
            devices_[target]->queue.push_back(std::move(pending));
            devices_[target]->backlog_estimate_us += estimate;
            dev.backlog_estimate_us -= estimate;
            ++total_queued_;
            metrics_.on_failover(index, static_cast<int>(target));
            signal_preempt_locked(target, prio);
            retried = true;
          }
        }
        if (retried) {
          // The job stays inflight; its new dispatcher takes over.
          work_ready_.notify_all();
          continue;
        }
      }

      // Permanent failure: retry budget exhausted, or a non-fault error
      // (bad spec caught late, driver bug) that a retry would only
      // repeat.
      emit(obs::EventType::RetryExhausted, pending.id, index, pending.attempts,
           /*arg=*/pending.attempts + 1, dev.gpu->clock_us());
      pending.promise.set_exception(error);
      metrics_.on_failed(index);
      finish_job(dev, estimate);
    }
    // Park: an idle device never needs a preempt request.
    dev.running_class.store(kIdleClass, std::memory_order_relaxed);
  }
}

}  // namespace saclo::serve
