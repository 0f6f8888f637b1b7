#include "workloads.hpp"

#include <sys/resource.h>

#include <cmath>
#include <future>
#include <stdexcept>
#include <thread>

#include "serve/admission.hpp"

namespace perfbench {

using saclo::apps::DownscalerConfig;
using saclo::serve::JobResult;
using saclo::serve::JobSpec;
using saclo::serve::Route;
using saclo::serve::ServeRuntime;

namespace {

/// Paper geometry (1080x1920 RGB) job of one route.
JobKind paper_kind(const std::string& label, Route route, int opt_level, int frames,
                   int exec_frames, double frame_budget_ms) {
  JobKind k;
  k.label = label;
  k.route = label;
  k.spec.route = route;
  k.spec.config = DownscalerConfig::paper();
  k.spec.frames = frames;
  k.spec.channels = 3;
  k.spec.exec_frames = exec_frames;
  k.spec.opt_level = opt_level;
  // A closed-loop client is a paying tenant with a real-time budget per
  // frame; gold_slo_attainment is the share of its jobs within it.
  k.spec.tenant = "gold";
  k.spec.deadline_ms = frames * frame_budget_ms;
  return k;
}

std::string route_label(const JobSpec& spec) {
  if (spec.route == Route::Gaspard) return spec.opt_level == 0 ? "gaspard_o0" : "gaspard_o2";
  return saclo::serve::route_name(spec.route);
}

}  // namespace

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "paper_sim") {
    // Tables I/II and Fig 12 path: timing-only frames at paper geometry
    // on the simulator. One device: a second dispatcher zero-filling
    // 16 MB allocator blocks in parallel contends for memory bandwidth,
    // which made throughput swing by a fifth from run to run.
    w.options.devices = 1;
    w.options.workers_per_device = 1;
    w.options.backend = saclo::gpu::BackendKind::Sim;
    const double budget_ms = 100.0;
    w.kinds = {paper_kind("sacng", Route::SacNongeneric, 0, 16, 0, budget_ms),
               paper_kind("sacg", Route::SacGeneric, 0, 16, 0, budget_ms),
               paper_kind("gaspard_o0", Route::Gaspard, 0, 16, 0, budget_ms),
               paper_kind("gaspard_o2", Route::Gaspard, 2, 16, 0, budget_ms)};
    w.episodes = 5;
    w.threads = 1 + 1;
  } else if (name == "host_exec") {
    // Every frame executes on the host backend: the tape VM, the
    // gather/compute/scatter kernels and the thread pool do the work.
    // sacg is left out: one executed paper-geometry sacg frame runs for
    // minutes through the interpreter.
    w.options.devices = 1;
    w.options.workers_per_device = 3;
    w.options.backend = saclo::gpu::BackendKind::Host;
    const double budget_ms = 2000.0;
    w.kinds = {paper_kind("sacng", Route::SacNongeneric, 0, 1, -1, budget_ms),
               paper_kind("gaspard_o0", Route::Gaspard, 0, 1, -1, budget_ms),
               paper_kind("gaspard_o2", Route::Gaspard, 2, 1, -1, budget_ms)};
    w.episodes = 5;
    w.executes = true;
    w.threads = 1 + 1 + 2;
  } else if (name == "replay_slo") {
    // Thousands of small multi-tenant jobs: admission, placement, edf,
    // batching, preemption, event emission and scrapes dominate.
    w.open_loop = true;
    w.options.devices = 2;
    w.options.workers_per_device = 1;
    w.options.backend = saclo::gpu::BackendKind::Sim;
    w.options.policy = saclo::serve::SchedPolicy::Edf;
    w.options.batch_max = 4;
    w.options.event_log_capacity = std::size_t{1} << 16;
    w.options.queue_capacity = 256;
    for (const saclo::serve::TrafficClass& c : saclo::serve::TrafficSpec::ci_default().classes) {
      JobKind k;
      k.label = c.name;
      k.spec = c.job();
      k.route = route_label(k.spec);
      w.kinds.push_back(k);
    }
    w.episodes = 20;
    w.executes = true;
    w.threads = 1 + 2;
    // Light enough that a job seldom waits for both devices: at 60/s a
    // run's p50 and tail were set by coincidences of long jobs and moved
    // by a fifth and a quarter from seed to seed.
    w.offered_rate_hz = 20.0;
    w.scrape_period_ms = 100.0;
    w.export_period_ms = 500.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::uint64_t output_checksum(const saclo::IntArray& a) {
  return fnv1a(a.data().data(), a.elements());
}

std::vector<Reference> compute_references(const Workload& w) {
  std::vector<Reference> refs;
  for (const JobKind& k : w.kinds) {
    const JobResult r = saclo::serve::reference_run(k.spec, w.options.device,
                                                    w.options.workers_per_device,
                                                    w.options.backend);
    Reference ref;
    ref.checksum = output_checksum(r.last_output);
    ref.elements = r.last_output.elements();
    ref.ops = r.ops;
    ref.sim_wall_us = r.sim_wall_us;
    refs.push_back(ref);
  }
  return refs;
}

namespace {
bool close(double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b)); }
}  // namespace

std::string mismatch(const Workload& w, const Reference& ref, const JobResult& r) {
  if (r.last_output.elements() != ref.elements || output_checksum(r.last_output) != ref.checksum) {
    return "output checksum";
  }
  const saclo::apps::OpBreakdown& a = r.ops;
  const saclo::apps::OpBreakdown& b = ref.ops;
  if (a.kernel_launches != b.kernel_launches || a.h2d_calls != b.h2d_calls ||
      a.d2h_calls != b.d2h_calls) {
    return "operation counts";
  }
  if (w.options.backend == saclo::gpu::BackendKind::Sim &&
      !(close(a.kernel_us, b.kernel_us) && close(a.h2d_us, b.h2d_us) &&
        close(a.d2h_us, b.d2h_us) && close(a.host_us, b.host_us))) {
    return "simulated operation times";
  }
  return "";
}

Fleet set_up(const Workload& w) {
  Fleet fleet;
  const Clock::time_point start = Clock::now();
  ServeRuntime::Options options = w.options;
  // Paused while the warm-up jobs are placed: least-loaded placement
  // then deals each kind's copies one per device.
  options.start_paused = true;
  fleet.runtime = std::make_unique<ServeRuntime>(options);
  ServeRuntime& rt = *fleet.runtime;
  std::vector<std::future<JobResult>> warm;
  for (const JobKind& k : w.kinds) {
    JobSpec spec = k.spec;
    spec.frames = 1;
    spec.exec_frames = 0;
    spec.deadline_ms = 0;
    for (int d = 0; d < rt.device_count(); ++d) {
      // A tenant of its own per warm-up job: no admission limit applies.
      spec.tenant = "warmup-" + std::to_string(warm.size());
      warm.push_back(rt.submit(spec));
    }
  }
  rt.resume();
  for (auto& f : warm) f.get();
  fleet.setup_s = ms_between(start, Clock::now()) / 1000.0;
  const auto snap = rt.metrics().snapshot();
  for (const auto& d : snap.devices) {
    if (d.jobs != static_cast<std::int64_t>(w.kinds.size())) {
      throw std::runtime_error("warm-up did not place one job of every kind on device " +
                               std::to_string(d.device));
    }
  }
  return fleet;
}

namespace {

/// Books one finished job into `out`; returns the record when it
/// completed (matched or not).
void book(const Workload& w, const std::vector<Reference>& refs, int kind,
          std::future<JobResult>& fut, JobRecord rec, Clock::time_point due,
          Clock::time_point submitted, LoopResult& out) {
  const JobKind& k = w.kinds[static_cast<std::size_t>(kind)];
  const bool gold = k.spec.tenant == "gold";
  if (gold) ++out.gold_submitted;
  JobResult r;
  try {
    r = fut.get();
  } catch (const saclo::serve::ShedError&) {
    ++out.acct.shed;
    return;
  } catch (const std::exception&) {
    ++out.acct.failed;
    return;
  }
  if (w.open_loop) {
    rec.latency_ms = open_loop_latency_ms(due, submitted, r.latency_us);
  }
  rec.queue_wait_us = r.queue_wait_us;
  rec.exec_us = r.exec_us;
  rec.runtime_latency_us = r.latency_us;
  rec.frames = r.frames;
  ++out.acct.completed;
  out.frames += r.frames;
  const std::string why = mismatch(w, refs[static_cast<std::size_t>(kind)], r);
  if (!why.empty()) {
    ++out.acct.mismatches;
    if (out.mismatch_notes.size() < 8) {
      out.mismatch_notes.push_back(k.label + " job " + std::to_string(rec.seq) + ": " + why);
    }
  } else {
    rec.done = true;
  }
  // The deadline counts from the due time, and a mismatch is a miss.
  if (gold && rec.done && rec.latency_ms <= k.spec.deadline_ms) ++out.gold_met;
  out.jobs.push_back(rec);
}

void record_job_spans(SpanRecorder* spans, const JobRecord& rec, const std::string& submit_name,
                      Clock::time_point due, Clock::time_point call, Clock::time_point ret,
                      int tid) {
  if (spans == nullptr) return;
  const std::uint64_t root = spans->reserve();
  const auto us = [](double v) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double, std::micro>(v));
  };
  if (call > due) spans->add(0, "bench.generator_lag", root, rec.seq, due, call, tid);
  spans->add(0, submit_name, root, rec.seq, call, ret, tid);
  // The runtime's own split of the job, placed from its submit stamp
  // (taken inside the submit call).
  const Clock::time_point accepted = call;
  spans->add(0, "serve.queue_wait", root, rec.seq, accepted, accepted + us(rec.queue_wait_us),
             tid);
  spans->add(0, "serve.exec", root, rec.seq, accepted + us(rec.queue_wait_us),
             accepted + us(rec.queue_wait_us + rec.exec_us), tid);
  spans->add(root, "bench.job", 0, rec.seq, due, accepted + us(rec.runtime_latency_us), tid);
}

}  // namespace

LoopResult run_closed_loop(const Workload& w, ServeRuntime& runtime,
                           const std::vector<Reference>& refs, std::uint64_t seed, double seconds,
                           SpanRecorder* spans, std::uint64_t id_base) {
  const std::vector<int> order =
      balanced_sequence(seed, static_cast<int>(w.kinds.size()), 1 << 16);
  LoopResult out;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  Clock::time_point finish = start;
  for (std::size_t i = 0; i < order.size() && Clock::now() < end; ++i) {
    const int kind = order[i];
    JobRecord rec;
    rec.kind = kind;
    rec.seq = id_base + i + 1;
    const Clock::time_point call = Clock::now();
    ++out.acct.submitted;
    std::future<JobResult> fut = runtime.submit(w.kinds[static_cast<std::size_t>(kind)].spec);
    const Clock::time_point ret = Clock::now();
    fut.wait();
    finish = Clock::now();
    rec.latency_ms = ms_between(call, finish);
    rec.submit_call_us = ms_between(call, ret) * 1000.0;
    book(w, refs, kind, fut, rec, call, call, out);
    if (!out.jobs.empty() && out.jobs.back().seq == rec.seq) {
      record_job_spans(spans, out.jobs.back(), "serve.submit", call, call, ret, 0);
    }
  }
  out.elapsed_s = ms_between(start, finish) / 1000.0;
  return out;
}

void append(LoopResult& into, const LoopResult& part) {
  into.acct.submitted += part.acct.submitted;
  into.acct.completed += part.acct.completed;
  into.acct.failed += part.acct.failed;
  into.acct.shed += part.acct.shed;
  into.acct.mismatches += part.acct.mismatches;
  into.jobs.insert(into.jobs.end(), part.jobs.begin(), part.jobs.end());
  into.frames += part.frames;
  into.elapsed_s += part.elapsed_s;
  into.gold_submitted += part.gold_submitted;
  into.gold_met += part.gold_met;
  into.lags_ms.insert(into.lags_ms.end(), part.lags_ms.begin(), part.lags_ms.end());
  into.scrape_ms.insert(into.scrape_ms.end(), part.scrape_ms.begin(), part.scrape_ms.end());
  into.export_ms.insert(into.export_ms.end(), part.export_ms.begin(), part.export_ms.end());
  into.trace_mb = std::max(into.trace_mb, part.trace_mb);
  into.backlog_at_end = std::max(into.backlog_at_end, part.backlog_at_end);
  into.fleet.batches += part.fleet.batches;
  into.fleet.preemptions += part.fleet.preemptions;
  into.fleet.alloc_hits += part.fleet.alloc_hits;
  into.fleet.alloc_misses += part.fleet.alloc_misses;
  into.fleet.peak_device_mb = std::max(into.fleet.peak_device_mb, part.fleet.peak_device_mb);
  into.fleet.events_dropped += part.fleet.events_dropped;
  into.mismatch_notes.insert(into.mismatch_notes.end(), part.mismatch_notes.begin(),
                             part.mismatch_notes.end());
}

namespace {

FleetCounters read_counters(ServeRuntime& rt) {
  FleetCounters c;
  const auto snap = rt.metrics().snapshot();
  c.batches = snap.batches_formed;
  c.preemptions = snap.preemptions;
  for (int d = 0; d < rt.device_count(); ++d) {
    const auto s = rt.allocator_stats(d);
    c.alloc_hits += s.hits;
    c.alloc_misses += s.misses;
    c.peak_device_mb =
        std::max(c.peak_device_mb, static_cast<double>(s.pool_peak_bytes) / (1024.0 * 1024.0));
  }
  c.events_dropped = rt.event_log() != nullptr ? rt.event_log()->dropped() : 0;
  return c;
}

}  // namespace

RunResult run_episodes(const Workload& w, const std::vector<Reference>& refs,
                       std::uint64_t seed, double seconds, SpanRecorder* spans) {
  RunResult run;
  const double episode_s = seconds / w.episodes;
  for (int e = 0; e < w.episodes; ++e) {
    SpanRecorder* traced = spans != nullptr && e % 2 == 1 ? spans : nullptr;
    Fleet fleet;
    {
      ScopedSpan s(spans, "bench.setup", 0, 0);
      fleet = set_up(w);
    }
    run.setup_s.push_back(fleet.setup_s);
    ServeRuntime& rt = *fleet.runtime;
    run.probe_ms.push_back(machine_probe_ms());
    const FleetCounters before = read_counters(rt);
    const std::uint64_t episode_seed = seed * 1000 + static_cast<std::uint64_t>(e);
    const std::uint64_t id_base = static_cast<std::uint64_t>(e + 1) << 40;
    LoopResult loop =
        w.open_loop
            ? run_open_loop(w, rt, refs, make_trace(w, episode_seed, episode_s), traced, id_base)
            : run_closed_loop(w, rt, refs, episode_seed, episode_s, traced, id_base);
    const FleetCounters after = read_counters(rt);
    loop.fleet.batches = after.batches - before.batches;
    loop.fleet.preemptions = after.preemptions - before.preemptions;
    loop.fleet.alloc_hits = after.alloc_hits - before.alloc_hits;
    loop.fleet.alloc_misses = after.alloc_misses - before.alloc_misses;
    loop.fleet.peak_device_mb = after.peak_device_mb;
    loop.fleet.events_dropped = after.events_dropped - before.events_dropped;
    if (traced != nullptr && !w.open_loop) {
      // A closed loop scrapes nothing while it runs; scrape once it is
      // done so the readers are on the ledger of every workload.
      for (int i = 0; i < 5; ++i) {
        ScopedSpan s(traced, "obs.scrape", 0, 0);
        rt.metrics_prometheus();
        loop.scrape_ms.push_back(s.finish());
      }
      for (int i = 0; i < 3; ++i) {
        ScopedSpan s(traced, "obs.trace_export", 0, 0);
        const std::string json = rt.merged_trace_json();
        loop.export_ms.push_back(s.finish());
        loop.trace_mb = static_cast<double>(json.size()) / (1024.0 * 1024.0);
      }
    }
    if (e == 0) run.first_episode_rss_mb = peak_rss_mb();
    append(traced != nullptr ? run.traced : run.untraced, loop);
  }
  return run;
}

saclo::serve::TrafficTrace make_trace(const Workload& w, std::uint64_t seed, double seconds) {
  const std::size_t n = static_cast<std::size_t>(std::llround(w.offered_rate_hz * seconds));
  saclo::serve::TrafficSpec spec = saclo::serve::TrafficSpec::ci_default();
  spec.seed = seed;
  spec.duration_ms = seconds * 1000.0;
  // No burst overlay: with it, the tail of a run was set by its two or
  // three largest bursts and moved by a quarter from seed to seed.
  spec.burst_rate_hz = 0;
  saclo::serve::TrafficTrace trace = saclo::serve::generate_trace(spec);
  while (trace.arrivals.size() <= n) {
    spec.duration_ms *= 2;
    trace = saclo::serve::generate_trace(spec);
  }
  // Keep n arrivals and stretch time so arrival n (the first one
  // dropped) would land exactly at `seconds`: the offered rate is then
  // n / seconds on every seed, while the diurnal swing keeps its shape.
  const double scale = seconds * 1000.0 / trace.arrivals[n].t_ms;
  trace.arrivals.resize(n);
  for (auto& a : trace.arrivals) a.t_ms *= scale;
  trace.spec.duration_ms = seconds * 1000.0;
  // Stratified class mix: every block of sum(weights) consecutive
  // arrivals carries each class exactly `weight` times, in a seeded
  // order, so every run offers the same mix.
  std::vector<int> block_classes;
  for (std::size_t c = 0; c < spec.classes.size(); ++c) {
    for (long i = 0; i < std::lround(spec.classes[c].weight); ++i) {
      block_classes.push_back(static_cast<int>(c));
    }
  }
  const std::vector<int> order = balanced_sequence(
      seed ^ 0x5eedull, static_cast<int>(block_classes.size()), static_cast<int>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const auto& cls = spec.classes[static_cast<std::size_t>(
        block_classes[static_cast<std::size_t>(order[i])])];
    trace.arrivals[i].class_name = cls.name;
    trace.arrivals[i].spec = cls.job();
  }
  return trace;
}

LoopResult run_open_loop(const Workload& w, ServeRuntime& runtime,
                         const std::vector<Reference>& refs,
                         const saclo::serve::TrafficTrace& trace, SpanRecorder* spans,
                         std::uint64_t id_base) {
  std::map<std::string, int> kind_of;
  for (std::size_t i = 0; i < w.kinds.size(); ++i) {
    kind_of[w.kinds[i].label] = static_cast<int>(i);
  }
  struct InFlight {
    int kind = 0;
    std::uint64_t seq = 0;
    Clock::time_point due;
    Clock::time_point call;
    Clock::time_point ret;
    std::future<JobResult> fut;
  };
  std::vector<InFlight> inflight;
  inflight.reserve(trace.arrivals.size());
  LoopResult out;
  const auto at = [](Clock::time_point base, double ms) {
    return base + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(ms));
  };
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  Clock::time_point next_scrape = at(start, w.scrape_period_ms);
  Clock::time_point next_export = at(start, w.export_period_ms);

  std::uint64_t seq = id_base;
  for (const saclo::serve::TrafficArrival& arrival : trace.arrivals) {
    const Clock::time_point due = at(start, arrival.t_ms);
    // Scrapes fall due on the same thread as the arrivals, so a slow
    // reader delays the arrivals behind it.
    while (std::min(next_scrape, next_export) <= due) {
      const bool is_export = next_export < next_scrape;
      Clock::time_point& slot = is_export ? next_export : next_scrape;
      std::this_thread::sleep_until(slot);
      ScopedSpan span(spans, is_export ? "obs.trace_export" : "obs.scrape", 0, 0);
      if (is_export) {
        const std::string json = runtime.merged_trace_json();
        out.trace_mb = static_cast<double>(json.size()) / (1024.0 * 1024.0);
        out.export_ms.push_back(span.finish());
      } else {
        const std::string text = runtime.metrics_prometheus();
        out.scrape_ms.push_back(span.finish());
      }
      slot = at(slot, is_export ? w.export_period_ms : w.scrape_period_ms);
    }
    std::this_thread::sleep_until(due);
    const int kind = kind_of.at(arrival.class_name);
    const Clock::time_point call = Clock::now();
    ++out.acct.submitted;
    auto fut = runtime.try_submit(arrival.spec);
    const Clock::time_point ret = Clock::now();
    out.lags_ms.push_back(ms_between(due, call));
    ++seq;
    if (!fut) {
      // Backlog full: the generator sheds instead of blocking, so the
      // schedule holds; the arrival counts as shed (and as a miss).
      ++out.acct.shed;
      if (w.kinds[static_cast<std::size_t>(kind)].spec.tenant == "gold") ++out.gold_submitted;
      continue;
    }
    inflight.push_back({kind, seq, due, call, ret, std::move(*fut)});
  }
  out.backlog_at_end = runtime.inflight_jobs();

  Clock::time_point finish = start;
  for (InFlight& f : inflight) {
    JobRecord rec;
    rec.kind = f.kind;
    rec.seq = f.seq;
    rec.lag_ms = ms_between(f.due, f.call);
    rec.submit_call_us = ms_between(f.call, f.ret) * 1000.0;
    const std::size_t before = out.jobs.size();
    book(w, refs, f.kind, f.fut, rec, f.due, f.call, out);
    if (out.jobs.size() > before) {
      const JobRecord& done = out.jobs.back();
      finish = std::max(finish, at(f.due, done.latency_ms));
      record_job_spans(spans, done, "serve.try_submit", f.due, f.call, f.ret, 0);
    }
  }
  out.elapsed_s = ms_between(start, finish) / 1000.0;
  return out;
}

namespace {
std::vector<std::vector<double>> latencies_by_kind(const Workload& w, const LoopResult& loop) {
  std::vector<std::vector<double>> by_kind(w.kinds.size());
  for (const JobRecord& j : loop.jobs) {
    by_kind[static_cast<std::size_t>(j.kind)].push_back(j.latency_ms);
  }
  return by_kind;
}
}  // namespace

double latency_p50_ms(const Workload& w, const LoopResult& loop) {
  std::vector<double> medians;
  for (const auto& v : latencies_by_kind(w, loop)) {
    if (!v.empty()) medians.push_back(median(v));
  }
  return geomean(medians);
}

double latency_tail_ms(const Workload& w, const LoopResult& loop) {
  std::vector<double> tails;
  for (const auto& v : latencies_by_kind(w, loop)) {
    if (!v.empty()) tails.push_back(tail_percentile(v).value);
  }
  return geomean(tails);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
