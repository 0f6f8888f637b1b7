// Fleet scaling sweep for the multi-GPU serving runtime: the same job
// mix pushed through 1..8 devices, once per execution backend. With
// the `sim` backend throughput is measured in frames per second of
// *simulated* fleet time (the makespan over devices): with a balanced
// mix it scales nearly linearly until per-device warmup (driver
// compilation, allocator cache fill) stops amortizing. The curve is
// not deterministic, though. Placement compares cost-model backlogs
// that shrink as real dispatcher threads finish jobs, so which device
// gets a job depends on thread timing, and regenerations of the same
// binary can differ (EXPERIMENTS.md). The `host` backend runs the same
// sweep with wall-clock op timing. CI archives one BENCH_serve_<backend>.json per backend
// and diffs the pair as a variant-parity sanity gate (timings
// legitimately differ across backends; the variant set and job counts
// must not).

#include <benchmark/benchmark.h>

#include <future>
#include <memory>
#include <vector>

#include "bench_support.hpp"
#include "serve/autoscale.hpp"
#include "serve/scheduler.hpp"
#include "serve/traffic.hpp"

using namespace saclo;
using namespace saclo::apps;
using namespace saclo::bench;
using namespace saclo::serve;

namespace {

constexpr int kJobs = 64;
constexpr int kFramesPerJob = 16;

/// A mixed stream of requests: both SaC tilers plus the GASPARD route,
/// like a front-end fanning heterogeneous traffic into one fleet.
JobSpec job_for(int index) {
  JobSpec spec;
  const Route routes[] = {Route::SacNongeneric, Route::SacNongeneric, Route::SacGeneric,
                          Route::Gaspard};
  spec.route = routes[index % 4];
  spec.frames = kFramesPerJob;
  spec.exec_frames = 1;  // validate one frame functionally, simulate the rest
  return spec;
}

struct SweepPoint {
  int devices = 0;
  double fps_sim = 0;
  double fps_real = 0;
  double makespan_us = 0;
  double latency_p99_us = 0;
  double min_utilization = 1.0;
  double alloc_hit_rate = 0;
};

SweepPoint run_fleet(int devices, gpu::BackendKind backend) {
  ServeRuntime::Options opts;
  opts.devices = devices;
  opts.queue_capacity = kJobs;
  opts.backend = backend;
  ServeRuntime runtime(opts);
  std::vector<std::future<JobResult>> futures;
  futures.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) futures.push_back(runtime.submit(job_for(i)));
  for (auto& f : futures) f.get();
  runtime.drain();

  const FleetMetrics::Snapshot s = runtime.metrics().snapshot();
  SweepPoint p;
  p.devices = devices;
  p.fps_sim = s.throughput_fps_sim;
  p.fps_real = s.throughput_fps_real;
  p.makespan_us = s.sim_makespan_us;
  p.latency_p99_us = s.latency_p99_us;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  for (const FleetMetrics::DeviceSnapshot& d : s.devices) {
    if (d.jobs > 0) p.min_utilization = std::min(p.min_utilization, d.utilization);
    hits += d.allocator.hits;
    misses += d.allocator.misses;
  }
  p.alloc_hit_rate = hits + misses > 0
                         ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                         : 0.0;
  return p;
}

/// Dynamic-batching point: a uniform gaspard-only backlog (every job
/// shares one batch_key) accepted while paused, then released at once —
/// the dispatchers coalesce deterministic batches of `batch_max`.
struct BatchPoint {
  double makespan_us = 0;
  std::int64_t batches_formed = 0;
  std::int64_t jobs_batched = 0;
};

BatchPoint run_batched_fleet(int devices, int batch_max, gpu::BackendKind backend) {
  ServeRuntime::Options opts;
  opts.devices = devices;
  opts.queue_capacity = kJobs;
  opts.backend = backend;
  opts.batch_max = batch_max;
  opts.start_paused = true;
  ServeRuntime runtime(opts);
  std::vector<std::future<JobResult>> futures;
  futures.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    JobSpec spec;
    spec.route = Route::Gaspard;
    spec.frames = kFramesPerJob;
    spec.exec_frames = 1;
    futures.push_back(runtime.submit(spec));
  }
  runtime.resume();
  for (auto& f : futures) f.get();
  runtime.drain();

  const FleetMetrics::Snapshot s = runtime.metrics().snapshot();
  return {s.sim_makespan_us, s.batches_formed, s.jobs_batched};
}

/// batch=1 vs batch=N on the same uniform backlog, emitted as paired
/// variants (`batch_1`, `batch_4`) for bench_diff.py's pair mode. The
/// gate this encodes is makespan *parity*: the hazard-driven stream
/// timeline is work-conserving across jobs, so coalescing (which elides
/// the inter-member barrier and amortizes per-job dispatch overhead in
/// real time) must leave the simulated makespan unchanged — a batching
/// bug that delays or reorders device work shows up as a variant
/// regression here.
void batching_sweep(gpu::BackendKind backend, BenchJson& out) {
  print_header(cat("Dynamic batching [", gpu::backend_kind_name(backend), " backend] — ", kJobs,
                   " gaspard jobs x ", kFramesPerJob, " frames, 2 devices"));
  std::printf("%10s %14s %10s %14s\n", "batch max", "makespan(s)", "batches", "jobs batched");
  double unbatched_us = 0;
  double batched_us = 0;
  for (int batch_max : {1, 4}) {
    const BatchPoint p = run_batched_fleet(2, batch_max, backend);
    (batch_max == 1 ? unbatched_us : batched_us) = p.makespan_us;
    std::printf("%10d %14.3f %10lld %14lld\n", batch_max, p.makespan_us / 1e6,
                static_cast<long long>(p.batches_formed),
                static_cast<long long>(p.jobs_batched));
    out.variant(cat("batch_", batch_max), p.makespan_us,
                {{"batches_formed", static_cast<double>(p.batches_formed)},
                 {"jobs_batched", static_cast<double>(p.jobs_batched)}});
  }
  if (unbatched_us > 0) {
    std::printf("\nbatched makespan vs unbatched: %+.2f%% (parity expected: the simulated\n"
                "timeline is work-conserving; batching amortizes real dispatch overhead)\n",
                100.0 * (batched_us / unbatched_us - 1.0));
  }
}

/// SLO policy sweep: the same two-tenant overload burst (a paying
/// "gold" tenant submitting high-priority deadline jobs interleaved
/// with a best-effort "free" tenant at 2x the fleet's capacity) drained
/// under each scheduling policy. The variant metric is the simulated
/// makespan — deterministic, and expected at parity across policies
/// (scheduling reorders work, it must not create or destroy any) — so
/// bench_diff.py can gate it; the SLO attainments ride along as extra
/// fields, and CI asserts priority/edf beat fifo on the gold class.
/// Scheduling must also be bit-exact: the sweep checksums every job
/// output in submission order and fails loudly on any cross-policy
/// divergence.
constexpr int kSloJobs = 32;

void slo_fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
}

struct SloPoint {
  double makespan_us = 0;
  double gold_attainment = 1.0;
  double free_attainment = 1.0;
  double gold_p50_ms = 0;
  std::int64_t deadline_misses = 0;
  std::uint64_t checksum = 1469598103934665603ull;  // FNV-1a offset basis
};

SloPoint run_slo_fleet(SchedPolicy policy, double deadline_ms) {
  ServeRuntime::Options opts;
  opts.devices = 2;
  opts.queue_capacity = kSloJobs;
  opts.policy = policy;
  ServeRuntime runtime(opts);
  // Warm every dispatcher's driver cache first (two same-route jobs
  // split across the two devices, for each distinct route): the policy
  // comparison below measures scheduling, not first-job driver
  // compilation — cold drivers would put a constant floor under the
  // gold phase and compress the fifo-vs-priority latency split.
  {
    std::vector<std::future<JobResult>> warm;
    for (Route route : {Route::SacNongeneric, Route::SacGeneric, Route::Gaspard}) {
      for (int d = 0; d < 2; ++d) {
        JobSpec spec;
        spec.route = route;
        spec.frames = 2;
        spec.exec_frames = 1;
        warm.push_back(runtime.submit(spec));
      }
    }
    for (auto& f : warm) f.get();
  }
  // The burst: submitted back to back, orders of magnitude faster than
  // a single job executes, so the queues are effectively staged and the
  // policy picks over the whole backlog.
  std::vector<std::future<JobResult>> futures;
  futures.reserve(kSloJobs);
  for (int i = 0; i < kSloJobs; ++i) {
    JobSpec spec = job_for(i);
    // Groups of four share a route and split 2 gold / 2 free: the
    // classes carry equal work AND the pairwise least-loaded placement
    // lands both classes on both devices (a strict gold/free alternation
    // would tie-break every gold job onto device 0 and every free job
    // onto device 1, leaving each queue single-class and the policy
    // nothing to reorder). The latency split is purely the scheduler's.
    const Route routes[] = {Route::SacNongeneric, Route::SacNongeneric, Route::SacGeneric,
                            Route::Gaspard};
    spec.route = routes[(i / 4) % 4];
    if (i % 4 < 2) {
      spec.tenant = "gold";
      spec.priority = Priority::High;
      spec.deadline_ms = deadline_ms;
    } else {
      spec.tenant = "free";
      spec.priority = Priority::Low;
    }
    futures.push_back(runtime.submit(spec));
  }

  SloPoint p;
  std::vector<double> gold_latencies;
  for (int i = 0; i < kSloJobs; ++i) {
    const JobResult r = futures[static_cast<std::size_t>(i)].get();
    if (i % 4 < 2) gold_latencies.push_back(r.latency_us);
    slo_fnv1a(p.checksum, static_cast<std::uint64_t>(r.route));
    slo_fnv1a(p.checksum, static_cast<std::uint64_t>(r.last_output.elements()));
    for (std::int64_t e = 0; e < r.last_output.elements(); ++e) {
      slo_fnv1a(p.checksum, static_cast<std::uint64_t>(r.last_output[e]));
    }
  }
  runtime.drain();

  const FleetMetrics::Snapshot s = runtime.metrics().snapshot();
  p.makespan_us = s.sim_makespan_us;
  p.deadline_misses = s.deadline_misses;
  for (const FleetMetrics::Snapshot::TenantSnapshot& t : s.tenants) {
    if (t.tenant == "gold") p.gold_attainment = t.slo_attainment();
    if (t.tenant == "free") p.free_attainment = t.slo_attainment();
  }
  p.gold_p50_ms = serve::percentile(std::move(gold_latencies), 0.5) / 1e3;
  return p;
}

bool slo_sweep() {
  print_header(cat("SLO policy sweep — ", kSloJobs,
                   " jobs (gold/high + free/low alternating), 2 devices, staged burst"));
  // Calibrate the deadline off a fifo run with no SLOs: tight enough
  // that fifo misses it for the gold tail stuck behind free jobs, slack
  // enough that a class-ordered drain meets it.
  const SloPoint cal = run_slo_fleet(SchedPolicy::Fifo, 0.0);
  const double deadline_ms = 0.6 * cal.gold_p50_ms;
  std::printf("calibration: gold p50 under fifo %.2f ms -> deadline %.2f ms\n", cal.gold_p50_ms,
              deadline_ms);
  std::printf("%10s %14s %12s %12s %10s\n", "policy", "makespan(s)", "gold slo%", "free slo%",
              "misses");

  BenchJson out("serve_slo");
  out.scalar("jobs", kSloJobs);
  out.scalar("frames_per_job", kFramesPerJob);
  out.scalar("deadline_frac_of_fifo_p50", 0.6);
  bool ok = true;
  for (SchedPolicy policy : {SchedPolicy::Fifo, SchedPolicy::Priority, SchedPolicy::Edf}) {
    const SloPoint p = run_slo_fleet(policy, deadline_ms);
    if (p.checksum != cal.checksum) {
      std::fprintf(stderr,
                   "slo_sweep: policy %s diverged from the fifo reference checksum "
                   "(%016llx != %016llx) — scheduling must be bit-exact\n",
                   sched_policy_name(policy), static_cast<unsigned long long>(p.checksum),
                   static_cast<unsigned long long>(cal.checksum));
      ok = false;
    }
    std::printf("%10s %14.3f %11.1f%% %11.1f%% %10lld\n", sched_policy_name(policy),
                p.makespan_us / 1e6, 100 * p.gold_attainment, 100 * p.free_attainment,
                static_cast<long long>(p.deadline_misses));
    out.variant(sched_policy_name(policy), p.makespan_us,
                {{"gold_slo_attainment", p.gold_attainment},
                 {"free_slo_attainment", p.free_attainment},
                 {"deadline_misses", static_cast<double>(p.deadline_misses)}});
  }
  out.write();
  return ok;
}

/// Elastic fleet sweep: one seeded diurnal+burst traffic trace replayed
/// three ways — pinned at the autoscaler's floor, pinned at its
/// ceiling, and autoscaled between them. The economics the artifact
/// captures: static-max buys its SLO attainment with ceiling-many
/// devices the whole run; the autoscaler should land within 90% of
/// that attainment while burning measurably fewer device-seconds
/// (devices only count while placement-eligible). Elasticity must also
/// be invisible in the outputs: all three replays run shed-free (the
/// backlog holds the whole trace) and must produce the identical
/// submission-order checksum — a drain that loses, duplicates or
/// corrupts a re-homed job diverges here and fails the bench.
constexpr int kScaleMin = 1;
constexpr int kScaleMax = 4;

struct AutoscalePoint {
  double elapsed_us = 0;
  double device_seconds = 0;
  double gold_attainment = 1.0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t failed = 0;
  std::int64_t scale_ups = 0;
  std::int64_t scale_downs = 0;
  std::int64_t rehomed = 0;
  std::uint64_t checksum = 0;
};

AutoscalePoint run_traffic_fleet(const TrafficTrace& trace, int devices, bool autoscaled) {
  ServeRuntime::Options opts;
  opts.devices = devices;
  // The whole trace fits in the backlog: no run sheds, so all three
  // variants complete the same job set and the checksums compare.
  opts.queue_capacity = trace.arrivals.size();
  if (autoscaled) {
    opts.max_devices = kScaleMax;
    // A freshly-activated device is cold (driver compile, empty
    // allocator cache): keep it placement-deprioritized briefly so it
    // doesn't absorb deadline jobs on its first dispatch.
    opts.warmup_ms = 100;
  }
  ServeRuntime runtime(opts);
  std::unique_ptr<Autoscaler> scaler;
  if (autoscaled) {
    AutoscalePolicy policy;
    policy.min_devices = kScaleMin;
    policy.max_devices = kScaleMax;
    // CI-scale control: tens-of-ms periods, react to one pressured
    // period (the trace is only a second and a half long), and keep
    // scale-down four times as patient as scale-up.
    policy.interval_ms = 20;
    policy.up_periods = 1;
    policy.down_periods = 4;
    policy.cooldown_ms = 100;
    scaler = std::make_unique<Autoscaler>(runtime, policy);
  }

  const ReplayStats stats = replay_trace(runtime, trace, 1.0);
  if (scaler) scaler->stop();
  runtime.drain();

  const FleetMetrics::Snapshot s = runtime.metrics().snapshot();
  AutoscalePoint p;
  p.elapsed_us = stats.elapsed_ms * 1000.0;
  p.device_seconds = s.device_seconds;
  p.completed = stats.completed;
  p.shed = stats.shed;
  p.failed = stats.failed;
  p.scale_ups = s.scale_ups;
  p.scale_downs = s.scale_downs;
  p.rehomed = s.jobs_rehomed;
  p.checksum = stats.checksum;
  for (const FleetMetrics::Snapshot::TenantSnapshot& t : s.tenants) {
    if (t.tenant == "gold") p.gold_attainment = t.slo_attainment();
  }
  return p;
}

bool autoscale_sweep() {
  TrafficSpec spec = TrafficSpec::ci_default();
  spec.duration_ms = 1500;    // a few diurnal cycles: room to both grow and drain
  spec.base_rate_hz = 80;     // peak load overruns one device, not four:
  spec.burst_rate_hz = 3;     // static_min visibly misses gold deadlines
  const TrafficTrace trace = generate_trace(spec);
  print_header(cat("Elastic autoscale sweep — ", trace.arrivals.size(),
                   " replayed arrivals over ", spec.duration_ms, " ms, fleet ", kScaleMin,
                   "..", kScaleMax, " devices"));
  std::printf("%12s %12s %14s %12s %8s %8s %8s\n", "fleet", "elapsed(s)", "device-sec",
              "gold slo%", "ups", "downs", "rehomed");

  BenchJson out("serve_autoscale");
  out.scalar("arrivals", static_cast<double>(trace.arrivals.size()));
  out.scalar("trace_seed", static_cast<double>(spec.seed));
  out.scalar("trace_duration_ms", spec.duration_ms);
  out.scalar("min_devices", kScaleMin);
  out.scalar("max_devices", kScaleMax);

  struct Variant {
    const char* name;
    int devices;
    bool autoscaled;
  };
  const Variant variants[] = {{"static_min", kScaleMin, false},
                              {"static_max", kScaleMax, false},
                              {"autoscaled", kScaleMin, true}};
  AutoscalePoint points[3];
  bool ok = true;
  for (int i = 0; i < 3; ++i) {
    const Variant& v = variants[i];
    const AutoscalePoint p = run_traffic_fleet(trace, v.devices, v.autoscaled);
    points[i] = p;
    std::printf("%12s %12.3f %14.2f %11.1f%% %8lld %8lld %8lld\n", v.name, p.elapsed_us / 1e6,
                p.device_seconds, 100 * p.gold_attainment, static_cast<long long>(p.scale_ups),
                static_cast<long long>(p.scale_downs), static_cast<long long>(p.rehomed));
    out.variant(v.name, p.elapsed_us,
                {{"device_seconds", p.device_seconds},
                 {"gold_slo_attainment", p.gold_attainment},
                 {"completed", static_cast<double>(p.completed)},
                 {"scale_ups", static_cast<double>(p.scale_ups)},
                 {"scale_downs", static_cast<double>(p.scale_downs)},
                 {"jobs_rehomed", static_cast<double>(p.rehomed)}});
    if (p.shed != 0 || p.failed != 0) {
      std::fprintf(stderr,
                   "autoscale_sweep: %s shed %lld / failed %lld job(s) — the backlog is "
                   "sized for a shed-free replay, so elasticity cannot hide behind drops\n",
                   v.name, static_cast<long long>(p.shed), static_cast<long long>(p.failed));
      ok = false;
    }
    if (p.checksum != points[0].checksum) {
      std::fprintf(stderr,
                   "autoscale_sweep: %s output checksum %016llx diverged from static_min "
                   "%016llx — scaling must be bit-exact\n",
                   v.name, static_cast<unsigned long long>(p.checksum),
                   static_cast<unsigned long long>(points[0].checksum));
      ok = false;
    }
  }
  const AutoscalePoint& maxp = points[1];
  const AutoscalePoint& autop = points[2];
  std::printf("\nautoscaled vs static_max: %.1f%% of gold attainment at %.0f%% of the "
              "device-seconds\n",
              maxp.gold_attainment > 0 ? 100 * autop.gold_attainment / maxp.gold_attainment
                                       : 100.0,
              maxp.device_seconds > 0 ? 100 * autop.device_seconds / maxp.device_seconds : 0.0);
  if (autop.gold_attainment < 0.9 * maxp.gold_attainment) {
    std::fprintf(stderr,
                 "autoscale_sweep: autoscaled gold attainment %.1f%% fell below 90%% of "
                 "static_max's %.1f%%\n",
                 100 * autop.gold_attainment, 100 * maxp.gold_attainment);
    ok = false;
  }
  if (autop.device_seconds >= maxp.device_seconds) {
    std::fprintf(stderr,
                 "autoscale_sweep: autoscaled burned %.2f device-seconds, not fewer than "
                 "static_max's %.2f — elasticity saved nothing\n",
                 autop.device_seconds, maxp.device_seconds);
    ok = false;
  }
  out.write();
  return ok;
}

void device_sweep(gpu::BackendKind backend) {
  const char* name = gpu::backend_kind_name(backend);
  print_header(cat("Serving fleet sweep [", name, " backend] — ", kJobs, " mixed jobs x ",
                   kFramesPerJob, " frames, 1..8 devices"));
  std::printf("%8s %14s %14s %12s %10s %8s\n", "devices", "sim fps", "makespan(s)", "p99(ms)",
              "min util", "hit%");

  BenchJson out(cat("serve_", name));
  std::vector<SweepPoint> points;
  for (int devices = 1; devices <= 8; devices *= 2) {
    const SweepPoint p = run_fleet(devices, backend);
    points.push_back(p);
    std::printf("%8d %14.1f %14.3f %12.2f %9.2f %7.1f\n", p.devices, p.fps_sim,
                p.makespan_us / 1e6, p.latency_p99_us / 1e3, p.min_utilization,
                100 * p.alloc_hit_rate);
    out.variant(cat("devices_", devices), p.makespan_us,
                {{"fps_sim", p.fps_sim},
                 {"fps_real", p.fps_real},
                 {"latency_p99_us", p.latency_p99_us},
                 {"min_utilization", p.min_utilization},
                 {"alloc_hit_rate", p.alloc_hit_rate}});
  }
  const double scaling_4x = points.size() >= 3 ? points[2].fps_sim / points[0].fps_sim : 0.0;
  const double scaling_8x = points.size() >= 4 ? points[3].fps_sim / points[0].fps_sim : 0.0;
  out.scalar("jobs", kJobs);
  out.scalar("frames_per_job", kFramesPerJob);
  out.scalar("speedup_4_devices", scaling_4x);
  out.scalar("speedup_8_devices", scaling_8x);
  std::printf("\nscaling vs 1 device: 4 devices %.2fx, 8 devices %.2fx\n", scaling_4x,
              scaling_8x);
  batching_sweep(backend, out);
  out.write();
}

void BM_FleetSmall(benchmark::State& state) {
  const int devices = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ServeRuntime::Options opts;
    opts.devices = devices;
    ServeRuntime runtime(opts);
    std::vector<std::future<JobResult>> futures;
    for (int i = 0; i < 8; ++i) {
      JobSpec spec = job_for(i);
      spec.frames = 2;
      spec.exec_frames = 1;
      futures.push_back(runtime.submit(spec));
    }
    for (auto& f : futures) benchmark::DoNotOptimize(f.get().sim_wall_us);
  }
}
BENCHMARK(BM_FleetSmall)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  for (gpu::BackendKind backend : {gpu::BackendKind::Sim, gpu::BackendKind::Host}) {
    device_sweep(backend);
  }
  const bool slo_ok = slo_sweep();
  const bool autoscale_ok = autoscale_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return slo_ok && autoscale_ok ? 0 : 1;
}
