#include "serve/scheduler.hpp"

#include <algorithm>
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

/// The shell's half of a job: what the scheduling core carries along
/// without looking at it.
struct JobState {
  std::promise<JobResult> promise;
  // Preemption bookkeeping: a displaced job carries its progress with
  // it, so a resumed chunk never recomputes completed frames.
  int next_frame = 0;           ///< first frame the next dispatch issues
  int preemptions = 0;          ///< frame-boundary displacements so far
  apps::OpBreakdown ops_done;   ///< accumulated over completed chunks
  double sim_wall_done_us = 0;  ///< accumulated simulated wall time
  double exec_done_us = 0;      ///< accumulated dispatcher-thread time
  IntArray partial_output;      ///< latest executed frame across chunks
};

namespace {
using Micros = std::chrono::duration<double, std::micro>;

int fleet_slots(const ServeRuntime::Options& options) {
  return std::max(1, std::max(options.devices, options.max_devices));
}
}  // namespace

ServeRuntime::ServeRuntime(const Options& options)
    : options_(options),
      metrics_(fleet_slots(options)),
      core_(options, fleet_slots(options), options.devices) {
  const auto require = [](bool ok, const std::string& why) {
    if (!ok) throw ServeError(why);
  };
  const Options& o = options_;
  require(o.devices > 0, cat("fleet needs at least one device, got ", o.devices));
  require(o.max_devices == 0 || o.max_devices >= o.devices,
          cat("max_devices ", o.max_devices, " is below devices ", o.devices,
              " — the elastic range is [1, max_devices]"));
  require(o.warmup_ms >= 0, cat("warmup_ms must be >= 0, got ", o.warmup_ms));
  require(o.alloc_class_cap_bytes >= 0,
          cat("alloc_class_cap_bytes must be >= 0, got ", o.alloc_class_cap_bytes));
  require(o.queue_capacity > 0, "queue_capacity must be positive");
  require(o.max_retries >= 0, cat("max_retries must be >= 0, got ", o.max_retries));
  require(o.batch_max >= 1, cat("batch_max must be >= 1, got ", o.batch_max));
  require(o.batch_wait_ms >= 0, cat("batch_wait_ms must be >= 0, got ", o.batch_wait_ms));
  require(o.tenant_rate_limit >= 0,
          cat("tenant_rate_limit must be >= 0, got ", o.tenant_rate_limit));
  require(o.tenant_rate_limit == 0 || o.tenant_rate_burst >= 1,
          cat("tenant_rate_burst must be >= 1 when rate limiting, got ", o.tenant_rate_burst));
  require(o.telemetry_port <= 65535,
          cat("telemetry_port must be <= 65535, got ", o.telemetry_port));
  const int slots = fleet_slots(options_);
  for (const fault::FaultSpec& spec : options_.fault_plan.specs()) {
    require(spec.device < slots, cat("fault plan targets device ", spec.device,
                                     " but the fleet has ", slots, " device slot(s)"));
  }
  paused_ = options_.start_paused;
  if (options_.event_log_capacity > 0) {
    event_log_ = std::make_unique<obs::EventLog>(options_.event_log_capacity);
    metrics_.attach_event_log(event_log_.get(), &trace_clock_,
                              static_cast<std::uint8_t>(options_.backend));
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
    if (i >= options_.devices) metrics_.set_active(i, false);
    devices_.push_back(std::move(dev));
  }
  for (int i = 0; i < slots; ++i) {
    devices_[static_cast<std::size_t>(i)]->dispatcher =
        std::thread([this, i] { dispatcher_loop(i); });
  }
  std::vector<std::string> backends;
  for (gpu::BackendKind kind : gpu::available_backends()) {
    backends.push_back(gpu::backend_kind_name(kind));
  }
  metrics_.set_build_info(SACLO_GIT_SHA, join(backends, ","));
  mount_telemetry();
}

ServeRuntime::~ServeRuntime() { shutdown(); }

void ServeRuntime::mount_telemetry() {
  if (options_.telemetry_port < 0) return;
  telemetry_ = std::make_unique<obs::TelemetryServer>(options_.telemetry_port);
  const char* text = "text/plain; charset=utf-8";
  telemetry_->handle("/metrics", [this](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                             metrics_prometheus()};
  });
  telemetry_->handle("/healthz", [this, text](const obs::HttpRequest&) {
    // Liveness: answering at all is the signal; the body carries the
    // barest vitals for a human curl.
    return obs::HttpResponse{200, text, cat("ok\nuptime_real_us ", fixed(now_us(), 0),
                                            "\ninflight ", inflight_jobs(), "\n")};
  });
  telemetry_->handle("/readyz", [this, text](const obs::HttpRequest&) {
    std::string why;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        why = "stopping";
      } else if (core_.active_count() == 0) {
        why = "no active devices";
      } else if (core_.active_count(/*healthy_only=*/true) == 0) {
        why = "all active devices degraded";
      } else if (core_.inflight() >= options_.queue_capacity) {
        why = cat("queue saturated (", core_.inflight(), "/", options_.queue_capacity, ")");
      }
    }
    if (why.empty()) return obs::HttpResponse{200, text, "ready\n"};
    return obs::HttpResponse{503, text, cat("not ready: ", why, "\n")};
  });
  telemetry_->handle("/debug/events", [this, text](const obs::HttpRequest& request) {
    if (event_log_ == nullptr) {
      return obs::HttpResponse{404, text, "event log disabled (event_log_capacity = 0)\n"};
    }
    const long n = request.query_long("n", 64);  // negative: every event
    const std::vector<obs::Event> events = event_log_->snapshot();
    const std::size_t start =
        n < 0 ? 0 : events.size() - std::min(events.size(), static_cast<std::size_t>(n));
    std::string body;
    for (std::size_t i = start; i < events.size(); ++i) body += obs::event_json(events[i]) + "\n";
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
  metrics_.on_alerts(transitions, active_count);
}

std::future<JobResult> ServeRuntime::shed_locked(JobSpec&& spec, ShedReason reason) {
  const std::uint64_t id = next_job_id_++;
  metrics_.on_shed(id, spec.tenant, reason);
  // The future resolves right here: a shed submission never hangs.
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
  if (!stopping_ && options_.shed_on_full && core_.inflight() >= options_.queue_capacity) {
    return shed_locked(std::move(spec), ShedReason::QueueFull);
  }
  if (blocking) {
    space_available_.wait(lock,
                          [&] { return core_.inflight() < options_.queue_capacity || stopping_; });
  }
  if (stopping_) {
    if (!blocking) return std::nullopt;
    throw ServeError("submit on a shut-down ServeRuntime");
  }
  if (core_.inflight() >= options_.queue_capacity) return std::nullopt;  // try_submit only

  Pending pending;
  pending.id = next_job_id_++;
  pending.estimate_us = estimate;
  pending.state = std::make_shared<JobState>();
  std::future<JobResult> future = pending.state->promise.get_future();
  const std::uint64_t id = pending.id;
  const int frames = spec.frames;
  const std::string tenant = spec.tenant;
  pending.spec = std::move(spec);
  const double now = now_us();
  if (serve_start_us_ < 0) serve_start_us_ = now;
  // Recorded before mutex_ is released, so no dispatcher's
  // job_dispatched can overtake the submission's events.
  const SchedCore::Placement placement = core_.submit(std::move(pending), now);
  apply_locked(placement);
  metrics_.on_submit(id, placement.target, tenant, frames, estimate);
  lock.unlock();
  work_ready_.notify_all();
  return future;
}

std::future<JobResult> ServeRuntime::submit(JobSpec spec) {
  return std::move(*submit_impl(std::move(spec), /*blocking=*/true));
}

std::optional<std::future<JobResult>> ServeRuntime::try_submit(JobSpec spec) {
  return submit_impl(std::move(spec), /*blocking=*/false);
}

void ServeRuntime::resume() {
  locked([&] { paused_ = false; });
  work_ready_.notify_all();
}

void ServeRuntime::drain() {
  resume();
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return core_.inflight() == 0; });
}

void ServeRuntime::shutdown() {
  // Stop scrapes first: no handler may read while the fleet tears down.
  if (telemetry_) telemetry_->stop();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;  // idempotent: a second call only waits for the joins
    paused_ = false;
  }
  work_ready_.notify_all();
  space_available_.notify_all();
  drain_done_.notify_all();  // unblock a scale_down() mid-wait
  for (auto& dev : devices_) {
    if (dev->dispatcher.joinable()) dev->dispatcher.join();
  }
}

void ServeRuntime::apply_locked(const SchedCore::Placement& placement) {
  // A published clock: no thread reads another device's timeline.
  for (int healed : placement.healed) {
    metrics_.on_healed(healed, core_.slot(healed).clock_us);
  }
  if (placement.preempt) {
    devices_[static_cast<std::size_t>(placement.target)]->preempt_flag.store(
        true, std::memory_order_relaxed);
  }
}

int ServeRuntime::active_devices() const {
  return locked([&] { return core_.active_count(); });
}

bool ServeRuntime::device_active(int device) const {
  return locked([&] { return core_.slot(device).state == DevState::Active; });
}

int ServeRuntime::scale_up() {
  if (options_.max_devices <= 0) {
    throw ServeError("scale_up on a fixed fleet (construct with max_devices > 0)");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) throw ServeError("scale_up on a shut-down ServeRuntime");
  const int device = core_.activate(now_us());
  if (device < 0) {
    throw ServeError(cat("scale_up: every slot is already active or draining (max_devices ",
                         options_.max_devices, ")"));
  }
  metrics_.on_scale_up(device, core_.active_count(), core_.slot(device).clock_us);
  lock.unlock();
  work_ready_.notify_all();
  return device;
}

int ServeRuntime::scale_down(int device) {
  if (options_.max_devices <= 0) {
    throw ServeError("scale_down on a fixed fleet (construct with max_devices > 0)");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) throw ServeError("scale_down on a shut-down ServeRuntime");
  const int victim = core_.drain_victim(device);
  // The gate stops the running job at its next frame boundary; the
  // dispatcher then requeues it like a preempted one.
  devices_[static_cast<std::size_t>(victim)]->drain_flag.store(true, std::memory_order_relaxed);
  const std::vector<SchedCore::Placement> rehomed = core_.drain(victim, now_us());
  for (const SchedCore::Placement& placement : rehomed) {
    apply_locked(placement);
    metrics_.on_rehomed(victim, placement.target);
  }
  metrics_.on_drain_started(victim, static_cast<int>(rehomed.size()), core_.slot(victim).clock_us);
  work_ready_.notify_all();  // wake the victim (to retire) and the targets

  drain_done_.wait(lock, [&] {
    return core_.slot(victim).state == DevState::Inactive || stopping_;
  });
  if (core_.slot(victim).state != DevState::Inactive) {
    throw ServeError("scale_down interrupted by shutdown");
  }
  return victim;
}

bool ServeRuntime::device_degraded(int device) const {
  return locked([&] { return core_.slot(device).degraded; });
}

void ServeRuntime::finish_job(int index, double estimate_us) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    core_.publish_clock(index, devices_[static_cast<std::size_t>(index)]->gpu->clock_us());
    core_.finish(index, estimate_us);
    if (core_.inflight() == 0) idle_.notify_all();
  }
  space_available_.notify_all();
}

std::size_t ServeRuntime::queued_jobs() const {
  return locked([&] { return core_.queued(); });
}

std::size_t ServeRuntime::inflight_jobs() const {
  return locked([&] { return core_.inflight(); });
}

CachingDeviceAllocator::Stats ServeRuntime::allocator_stats(int device) const {
  return devices_.at(static_cast<std::size_t>(device))->cache->stats();
}

double ServeRuntime::device_sim_clock_us(int device) const {
  // Published by the device's dispatcher; after drain() its final clock.
  return locked([&] { return core_.slot(device).clock_us; });
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
  return metrics_.prometheus();
}

std::string ServeRuntime::events_jsonl() const {
  return event_log_ != nullptr ? event_log_->jsonl() : std::string();
}

std::vector<obs::Event> ServeRuntime::events() const {
  return event_log_ != nullptr ? event_log_->snapshot() : std::vector<obs::Event>{};
}

std::vector<obs::DeviceTrace> ServeRuntime::device_traces() const {
  // DeviceTrace::of copies under the profiler's lock: safe mid-run.
  std::vector<obs::DeviceTrace> traces;
  traces.reserve(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    traces.push_back(obs::DeviceTrace::of(static_cast<int>(i), devices_[i]->gpu->profiler(),
                                          devices_[i]->gpu->backend_name()));
  }
  return traces;
}

std::string ServeRuntime::merged_trace_json() const {
  return obs::merged_chrome_trace(device_traces(), events());
}

JobResult ServeRuntime::run_job(Device& dev, int index, Pending& pending, bool flush,
                                const apps::FrameGate& gate) {
  const double dispatch_us = now_us();
  const JobSpec& spec = pending.spec;
  JobState& state = *pending.state;
  const int first_frame = state.next_frame;

  // Compiled drivers live for the dispatcher's lifetime, keyed by
  // (route, geometry): repeat traffic skips parse/typecheck/plan and
  // goes straight to the frame loop.
  thread_local std::map<std::string, std::unique_ptr<apps::SacDownscaler>> sac_drivers;
  thread_local std::map<std::string, std::unique_ptr<apps::GaspardDownscaler>> gaspard_drivers;

  // Per-frame progress events; with the event log off the pipelines get
  // an empty callback: one branch per frame, zero allocations.
  apps::FrameCallback on_frame;
  if (event_log_ != nullptr) {
    gpu::VirtualGpu* gpu = dev.gpu.get();
    const std::uint64_t job_id = pending.id;
    const int attempt = pending.attempts;
    on_frame = [this, gpu, job_id, attempt, index](int frame) {
      metrics_.on_frame_done(job_id, index, attempt, frame, gpu->clock_us());
    };
  }

  const int exec = spec.effective_exec_frames();
  const auto accumulate = [&](auto&& r) {
    state.ops_done += r.h;
    state.ops_done += r.v;
    state.sim_wall_done_us += r.wall_us;
    // Keep the newest executed frame (a chunk past exec_frames runs
    // simulated-only and produces none).
    if (first_frame < std::min(r.next_frame, exec)) {
      state.partial_output = std::move(r.last_output);
    }
    state.next_frame = r.next_frame;
  };
  const auto cached = [](auto& drivers, const std::string& key, auto make) -> auto& {
    auto it = drivers.find(key);
    if (it == drivers.end()) it = drivers.emplace(key, make()).first;
    return *it->second;
  };
  if (spec.route == Route::Gaspard) {
    // Keyed by the batch key: it folds in the optimizer level, so
    // opt-level-0 and fused drivers of the same geometry coexist.
    auto& driver = cached(gaspard_drivers, batch_key(spec), [&] {
      apps::GaspardDownscaler::Options opts;
      opts.device = options_.device;
      opts.workers = options_.workers_per_device;
      opts.rgb = spec.channels == 3;
      opts.async_streams = true;
      opts.opt_level = spec.opt_level;
      return std::make_unique<apps::GaspardDownscaler>(spec.config, opts);
    });
    accumulate(driver.run_on(*dev.gpu, spec.frames, exec, on_frame, flush, first_frame, gate));
  } else {
    auto& driver = cached(sac_drivers, driver_key(spec.route, spec.config), [&] {
      apps::SacDownscaler::Options opts;
      opts.generic = spec.route == Route::SacGeneric;
      opts.device = options_.device;
      opts.host = options_.host;
      opts.workers = options_.workers_per_device;
      opts.async_streams = true;
      return std::make_unique<apps::SacDownscaler>(spec.config, opts);
    });
    accumulate(driver.run_cuda_chain_on(*dev.gpu, spec.frames, spec.channels, exec, on_frame,
                                        flush, first_frame, gate));
  }

  // The result always reports the whole job so far — every completed
  // chunk of a preempted job, not just this dispatch.
  const double done_us = now_us();
  state.exec_done_us += done_us - dispatch_us;
  const double latency_us = done_us - pending.submit_us;
  const double deadline_us = spec.deadline_ms * 1000.0;
  return {.id = pending.id, .device = index, .attempts = pending.attempts, .route = spec.route,
          .frames = spec.frames,
          .last_output =
              state.next_frame >= spec.frames ? std::move(state.partial_output) : IntArray{},
          .ops = state.ops_done, .sim_wall_us = state.sim_wall_done_us,
          .queue_wait_us = dispatch_us - pending.submit_us, .exec_us = state.exec_done_us,
          .latency_us = latency_us, .tenant = spec.tenant, .priority = spec.priority,
          .deadline_us = deadline_us, .slo_met = deadline_us <= 0 || latency_us <= deadline_us,
          .preemptions = state.preemptions};
}

void ServeRuntime::dispatcher_loop(int index) {
  Device& dev = *devices_[static_cast<std::size_t>(index)];
  const SchedCore::Slot& slot = core_.slot(index);  // read under mutex_ only
  for (;;) {
    std::vector<Pending> batch;  // a leader, plus same-key followers
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        if (stopping_ && slot.queue.empty()) return;
        if (slot.state == DevState::Draining && slot.queue.empty()) {
          // Drained: sweep what is live (nothing, on a clean drain) and
          // the parked cache, so a retired slot pins no device memory.
          const std::int64_t reclaimed = dev.cache->reclaim_live();
          dev.cache->trim();
          metrics_.set_allocator_stats(index, dev.cache->stats());
          core_.retire(index);
          dev.drain_flag.store(false, std::memory_order_relaxed);
          metrics_.on_drain_complete(index, reclaimed, core_.active_count(), dev.gpu->clock_us());
          drain_done_.notify_all();
        }
        if (!paused_ || stopping_) {
          const double now = now_us();
          SchedCore::Selection selection = core_.select(index, now);
          if (!selection.batch.empty()) {
            // Nothing queued outranks the selection: void a stale
            // preempt request. Busy with work still queued, this device
            // is now a steal victim: wake the idle peers that skipped it.
            dev.preempt_flag.store(false, std::memory_order_relaxed);
            batch = std::move(selection.batch);
            if (options_.work_stealing && !slot.queue.empty()) work_ready_.notify_all();
            break;
          }
          if (selection.wake_us) {  // everything queued is backing off
            work_ready_.wait_for(lock, Micros(*selection.wake_us - now));
            continue;
          }
          if (options_.work_stealing && !stopping_ && !paused_ &&
              slot.state == DevState::Active) {
            const std::vector<SchedCore::Stolen> stolen = core_.steal(index, now);
            for (const SchedCore::Stolen& s : stolen) {
              metrics_.on_steal(s.id, s.victim, index, s.attempts, dev.gpu->clock_us());
            }
            if (!stolen.empty()) continue;  // re-run selection over the stolen work
          }
        }
        work_ready_.wait(lock);
      }
      // Coalesce ready same-key jobs behind the leader, holding an
      // underfull batch open up to batch_wait_ms for late arrivals.
      const double deadline = now_us() + options_.batch_wait_ms * 1000.0;
      for (double now = now_us(); options_.batch_max > 1; now = now_us()) {
        core_.extend_batch(index, batch, now);
        const bool full = batch.size() >= static_cast<std::size_t>(options_.batch_max);
        if (full || stopping_ || now >= deadline) break;
        work_ready_.wait_for(lock, Micros(deadline - now));
      }
    }
    space_available_.notify_all();

    // Frame-boundary preemption and drains: the pipelines consult the
    // gate only for frames past the chunk's first, so every dispatch
    // makes at least one frame of progress (no livelock) and a low job
    // delays a high one by at most one frame. Coalesced batches are
    // never gated: a drain waits for the bounded batch instead.
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
      metrics_.on_batch(batch_id, index, static_cast<int>(batch.size()), dev.gpu->clock_us());
    }

    for (std::size_t member = 0; member < batch.size(); ++member) {
      Pending& pending = batch[member];
      JobState& state = *pending.state;
      const bool last = member + 1 == batch.size();
      if (member > 0) {
        locked([&] { core_.start_member(); });
        space_available_.notify_all();
      }
      metrics_.on_dispatch(pending.id, index, pending.attempts, dev.gpu->clock_us());

      JobResult result;
      std::exception_ptr error;
      bool device_fault = false;
      // Every interval the device profiles carries the job's trace id,
      // attempt and batch id — the key the merged Chrome trace joins on.
      dev.gpu->begin_job_trace(pending.id, static_cast<std::uint32_t>(pending.attempts),
                               batch_id);
      try {
        // Only the last member flushes: the timeline is ordered by
        // buffer hazards either way, so a batch needs one barrier.
        result = run_job(dev, index, pending, /*flush=*/last, gate);
      } catch (const fault::DeviceFault&) {
        device_fault = true;
        error = std::current_exception();
      } catch (...) {
        error = std::current_exception();
      }
      dev.gpu->end_job_trace();

      if (error == nullptr && state.next_frame < pending.spec.frames) {
        // Stopped at a frame boundary by a preempt request or a drain.
        // The chunk flushed, so its progress resumes bit-exactly on any
        // device. A drain displacement is a re-home, not a preemption.
        {
          std::lock_guard<std::mutex> lock(mutex_);
          const bool draining = slot.state == DevState::Draining;
          const std::uint64_t id = pending.id;
          const int attempts = pending.attempts;
          core_.publish_clock(index, dev.gpu->clock_us());
          const double now = now_us();
          const SchedCore::Placement placement = core_.requeue(index, std::move(pending), now, now);
          if (draining) {
            metrics_.on_rehomed(index, placement.target, /*queued=*/false);
          } else {
            ++state.preemptions;
            metrics_.on_preempted(id, index, placement.target, attempts, state.next_frame,
                                  dev.gpu->clock_us());
          }
          apply_locked(placement);
        }
        work_ready_.notify_all();
        continue;
      }

      if (error == nullptr) {
        // Record before handing the result off through the promise.
        metrics_.on_complete(index, result, dev.gpu->clock_us());
        metrics_.set_allocator_stats(index, dev.cache->stats());
        locked([&] { metrics_.set_elapsed_real_us(now_us() - serve_start_us_); });
        state.promise.set_value(std::move(result));
        finish_job(index, pending.estimate_us);
        continue;
      }

      if (device_fault) {
        // The frame loop died mid-flight: sweep what is still live so the
        // device starts the next job leak-free. Remaining batch members
        // never ran and simply dispatch next, here.
        const std::int64_t reclaimed = dev.cache->reclaim_live();
        // Where the injector fired beats the device clock, which stops
        // at the last successful op.
        const double fault_sim_us = dev.injector != nullptr
                                        ? dev.injector->last_fault_clock_us()
                                        : dev.gpu->clock_us();
        metrics_.on_device_fault(pending.id, index, pending.attempts, reclaimed, fault_sim_us);
        metrics_.set_allocator_stats(index, dev.cache->stats());

        std::optional<SchedCore::Placement> retry;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          core_.publish_clock(index, dev.gpu->clock_us());
          const std::uint64_t id = pending.id;
          const int attempts = pending.attempts;
          const SchedCore::Fault fault = core_.fault(index, pending, now_us());
          if (fault.newly_degraded) metrics_.on_degraded(id, index, attempts, dev.gpu->clock_us());
          retry = fault.retry;
          if (retry) {
            apply_locked(*retry);
            // Source, hop and target: the merged trace's flow arrow.
            metrics_.on_failover(id, index, retry->target, attempts + 1, dev.gpu->clock_us());
          }
        }
        if (retry) {
          work_ready_.notify_all();
          continue;
        }
      }

      // Permanent failure: the retry budget is spent, or a non-fault
      // error that a retry would only repeat.
      metrics_.on_failed(pending.id, index, pending.attempts, dev.gpu->clock_us());
      state.promise.set_exception(error);
      finish_job(index, pending.estimate_us);
    }
  }
}

}  // namespace saclo::serve
