// saclo-serve — drive the multi-GPU serving runtime from the command
// line: submit a batch of downscale jobs to a simulated device fleet
// and print the fleet report (or its JSON / a device's Chrome trace).
//
// Usage:
//   saclo-serve [--devices N] [--jobs M] [--route sacng|sacg|gaspard|mixed]
//               [--backend sim|host]
//               [--frames F] [--exec-frames E] [--height H] [--width W]
//               [--queue-capacity Q]
//               [--opt-level L] [--batch-max N] [--batch-wait-ms T]
//               [--policy fifo|priority|edf] [--no-preemption]
//               [--work-stealing] [--shed-on-full]
//               [--tenant NAME]... [--priority high|normal|low]...
//               [--deadline-ms D]... [--rate-limit R] [--rate-burst B]
//               [--fault SPEC] [--max-retries R]
//               [--json] [--trace DEVICE] [--checksum]
//               [--trace-out FILE] [--events-out FILE] [--metrics-out FILE]
//               [--events-capacity N]
//   saclo-serve --analyze-trace TRACE [EVENTS]
//
// --policy selects the queue-draining order of the dispatchers (fifo is
// the pre-SLO behavior); --tenant / --priority / --deadline-ms repeat
// and round-robin across the submitted jobs, so one invocation builds a
// multi-class mix. The one command line
//   saclo-serve --jobs 32 --policy edf --tenant gold --tenant free
//     --priority high --priority low --deadline-ms 50 --deadline-ms 0
// submits alternating gold/high/50ms and free/low/no-deadline jobs.
// Scheduling is bit-exact: the checksum line must not change across
// --policy values (only latencies and SLO attainment do).
//
// --rate-limit installs per-tenant token-bucket admission; over-limit
// submissions (and, with --shed-on-full, submissions into a full
// backlog) are shed with a typed error — counted, reported on stderr,
// never a hang and never a nonzero exit on their own.
//
// --opt-level runs the Array-OL transformation optimizer on the gaspard
// route's model before code generation (0 = the paper's unfused chain,
// 1 = fusion, 2 = fusion + channel merge); --batch-max lets a
// dispatcher coalesce queued same-(route, geometry, opt-level, channels)
// jobs into one fused frame loop. Both are bit-exact: the checksum line
// must not change with either flag.
//
// --backend selects the execution backend of every fleet device; job
// results are bit-exact across backends, so
//   saclo-serve ... --backend sim --checksum
//   saclo-serve ... --backend host --checksum
// must print the same checksum line (the backend-differential CI job
// gates on exactly this, including under injected faults).
//
// --autoscale runs the closed-loop fleet controller: the runtime starts
// at --min-devices, may grow to --max-devices under queue/SLO pressure,
// and drains devices gracefully when load subsides (running frames stop
// at the next frame boundary and re-home bit-exactly). --trace-replay
// replays a committed traffic trace (see --trace-gen / --trace-save to
// produce one) through the normal admission path instead of the --jobs
// batch, so the load the controller reacts to is reproducible:
//   saclo-serve --trace-gen "seed=7,duration_ms=2000" --trace-save t.json
//   saclo-serve --autoscale --min-devices 1 --max-devices 4 --trace-replay t.json --checksum
// The checksum line is bit-identical to the same replay on any static
// fleet size — elasticity never changes results, only device-seconds.
//
// --fault installs an injected failure, e.g.
//   saclo-serve --devices 2 --fault "dev=0,after_ms=50,kind=kernel"
// The flag repeats, and one SPEC may hold several ';'-separated specs;
// faulted jobs fail over per the runtime's retry policy and the report
// gains a health section.
//
// The observability sinks write after drain():
//   --trace-out    fleet-merged Chrome trace (pid = device, tid = stream,
//                  flow arrows across failover hops)
//   --events-out   structured JSONL event log (job_admitted, frame_done,
//                  device_fault, failover, ...)
//   --metrics-out  Prometheus text exposition of the fleet metrics
//
// --telemetry-port mounts the live observability plane on 127.0.0.1: an
// embedded HTTP endpoint serving /metrics (the same Prometheus
// exposition, from a live snapshot), /healthz, /readyz, /debug/events,
// /debug/trace, /debug/fleet — and /alerts with --alerts. Port 0 picks
// an ephemeral port (printed on stderr). A scrape taken after the run
// drained is counter-identical to --metrics-out (only the wall-clock
// gauge saclo_device_seconds_total keeps accruing);
// --telemetry-linger-ms keeps the endpoint up that long after the
// sinks are written so an external scraper can take that final scrape.
//
// --alerts runs the SLO burn-rate alert engine against periodic metric
// samples (fast/slow dual-window burn rate per tenant, queue
// saturation, degraded devices); transitions emit alert_raised/
// alert_cleared wire events and --alerts-out writes the JSONL alert
// log. --analyze prints the trace critical-path attribution (compute
// vs transfer vs queue wait vs preemption/drain stalls, per device and
// per route) after the run; --analyze-trace prints the same attribution
// offline from archived --trace-out / --events-out files, then exits.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "fault/plan.hpp"
#include "gpu/backend_kind.hpp"
#include "flag_number.hpp"
#include "obs/critpath.hpp"
#include "serve/alerting.hpp"
#include "serve/autoscale.hpp"
#include "serve/scheduler.hpp"
#include "serve/traffic.hpp"

using namespace saclo;
using namespace saclo::serve;
using saclo::tools::flag_number;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: saclo-serve [--devices N] [--jobs M]\n"
               "                   [--route sacng|sacg|gaspard|mixed] [--frames F]\n"
               "                   [--backend sim|host]\n"
               "                   [--exec-frames E] [--height H] [--width W]\n"
               "                   [--queue-capacity Q]\n"
               "                   [--opt-level L] [--batch-max N] [--batch-wait-ms T]\n"
               "                   [--policy fifo|priority|edf] [--no-preemption]\n"
               "                   [--work-stealing] [--shed-on-full]\n"
               "                   [--tenant NAME]... [--priority P]... [--deadline-ms D]...\n"
               "                   [--rate-limit R] [--rate-burst B] [--stagger-ms T]\n"
               "                   [--fault SPEC] [--max-retries R]\n"
               "                   [--autoscale] [--min-devices N] [--max-devices N]\n"
               "                   [--scale-interval-ms T] [--alloc-class-cap-kb K]\n"
               "                   [--trace-replay FILE] [--replay-speed X]\n"
               "                   [--trace-gen SPEC] [--trace-save FILE]\n"
               "                   [--json] [--trace DEVICE] [--checksum]\n"
               "       saclo-serve --analyze-trace TRACE [EVENTS]\n"
               "\n"
               "  --policy P     dispatcher queue order: fifo (default, the\n"
               "                 pre-SLO behavior), priority (class order), edf\n"
               "                 (class order, earliest deadline first within it)\n"
               "  --no-preemption  keep a queued higher-class job from displacing\n"
               "                 the running one at the next frame boundary\n"
               "  --work-stealing  idle dispatchers pull the policy-worst tail of\n"
               "                 the busiest peer queue (default off)\n"
               "  --tenant NAME / --priority high|normal|low / --deadline-ms D\n"
               "                 repeatable; round-robin over the submitted jobs\n"
               "                 (deadline 0 = no SLO)\n"
               "  --rate-limit R  per-tenant token-bucket admission, R jobs/s\n"
               "                 sustained (default 0 = off); over-limit\n"
               "                 submissions are shed with a typed error\n"
               "  --rate-burst B  bucket depth of the limiter (default 4)\n"
               "  --shed-on-full  shed instead of blocking when the backlog is at\n"
               "                 queue-capacity\n"
               "  --stagger-ms T  pause T real ms between submissions (default 0):\n"
               "                 later high-priority jobs then arrive while earlier\n"
               "                 ones run, which is what exercises preemption\n"
               "  --opt-level L  Array-OL optimizer level for gaspard jobs:\n"
               "                 0 unfused (default), 1 fusion, 2 fusion+merge;\n"
               "                 bit-exact across levels, fewer kernels per frame\n"
               "  --batch-max N  coalesce up to N queued same-key jobs into one\n"
               "                 fused frame loop per dispatch (default 1 = off)\n"
               "  --batch-wait-ms T  hold an underfull batch open up to T ms\n"
               "                 waiting for more same-key arrivals (default 0)\n"
               "  --backend B    execution backend of every fleet device\n"
               "                 (default sim; results are bit-exact across backends)\n"
               "  --checksum     print \"checksum <hex>\" over every job's output\n"
               "                 (submission order) -- for cross-backend comparison\n"
               "  --fault SPEC   inject a device failure; repeatable. SPEC is\n"
               "                 ';'-separated specs of comma-separated fields:\n"
               "                   dev=D            target fleet device (default 0)\n"
               "                   after_ms=T       fail once D's sim clock reaches T ms\n"
               "                   after_kernels=K  fail D's (K+1)-th kernel launch\n"
               "                   after_transfers=M  fail D's (M+1)-th PCIe transfer\n"
               "                   kind=kernel|transfer|any  boundary for after_ms\n"
               "                   recurring        keep failing (default: one-shot)\n"
               "                 e.g. --fault \"dev=2,after_ms=50,kind=kernel\"\n"
               "  --max-retries R  per-job failover budget (default 3)\n"
               "  --autoscale    run the closed-loop fleet controller; the fleet\n"
               "                 starts at --min-devices and may grow to\n"
               "                 --max-devices (conflicts with --devices)\n"
               "  --min-devices N  autoscaler floor (default 1; needs --autoscale)\n"
               "  --max-devices N  fleet ceiling (default 4 with --autoscale);\n"
               "                 without --autoscale just pre-builds elastic slots\n"
               "  --scale-interval-ms T  autoscaler control period (default 25)\n"
               "  --alloc-class-cap-kb K  per-size-class allocator cache cap in\n"
               "                 KiB (default 0 = uncapped); LRU-trims on overflow\n"
               "  --trace-replay FILE  replay a committed traffic trace through\n"
               "                 the admission path instead of the --jobs batch\n"
               "  --replay-speed X  compress the replay timeline by X (default 1)\n"
               "  --trace-gen SPEC  traffic-spec overrides for --trace-save, e.g.\n"
               "                 \"seed=7,duration_ms=2000,base_rate_hz=80\"\n"
               "  --trace-save FILE  generate the trace and write it, then exit\n"
               "  --trace-out FILE    write the fleet-merged Chrome trace\n"
               "  --events-out FILE   write the structured JSONL event log\n"
               "  --metrics-out FILE  write the Prometheus metrics exposition\n"
               "  --events-capacity N bound of the event ring (default 65536)\n"
               "  --telemetry-port P  serve live telemetry on 127.0.0.1:P\n"
               "                 (/metrics, /healthz, /readyz, /debug/events,\n"
               "                 /debug/trace, /debug/fleet; 0 = ephemeral port,\n"
               "                 printed on stderr)\n"
               "  --telemetry-linger-ms T  keep the telemetry endpoint up T ms\n"
               "                 after the sinks are written (final scrapes)\n"
               "  --alerts       run the SLO burn-rate alert engine (adds /alerts\n"
               "                 with --telemetry-port)\n"
               "  --alerts-out FILE  write the JSONL alert log (implies --alerts)\n"
               "  --analyze      print the trace critical-path attribution after\n"
               "                 the run (compute/transfer/queue-wait/stalls per\n"
               "                 device and per route)\n"
               "  --analyze-trace TRACE [EVENTS]  print that attribution from a\n"
               "                 --trace-out file (and an --events-out file for\n"
               "                 queue wait and stalls), then exit\n");
  return 2;
}

/// FNV-1a over a job's identity and full output pixels — deterministic
/// for a given job mix, independent of which devices ran what or how
/// many failover hops occurred.
void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
}

/// --analyze-trace: the critical-path report of archived --trace-out /
/// --events-out files. A bad file is one line on stderr and exit 1.
int analyze_files(const std::string& trace_path, const std::string& events_path) {
  try {
    const std::vector<obs::DeviceTrace> devices = obs::load_chrome_trace(trace_path);
    const std::vector<obs::Event> events =
        events_path.empty() ? std::vector<obs::Event>{} : obs::load_event_log(events_path);
    std::printf("%s",
                obs::critical_path_report(obs::analyze_critical_path(devices, events)).c_str());
    return 0;
  } catch (const obs::TraceLoadError& e) {
    std::fprintf(stderr, "saclo-serve: %s\n", e.what());
    return 1;
  }
}

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "saclo-serve: cannot write %s\n", path.c_str());
    return false;
  }
  out << contents;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) try {
  ServeRuntime::Options opts;
  apps::DownscalerConfig cfg = apps::DownscalerConfig::paper();
  std::string route = "mixed";
  int jobs = 8;
  int frames = 16;
  int exec_frames = 1;
  int opt_level = 0;
  std::vector<std::string> tenants;
  std::vector<Priority> priorities;
  std::vector<double> deadlines_ms;
  double stagger_ms = 0;
  bool autoscale = false;
  bool devices_set = false;
  bool min_devices_set = false;
  bool interval_set = false;
  int min_devices = 1;
  int max_devices = 0;
  double scale_interval_ms = 25.0;
  std::string trace_replay;
  std::string trace_gen;
  std::string trace_save;
  double replay_speed = 1.0;
  bool emit_json = false;
  bool emit_checksum = false;
  int trace_device = -1;
  std::string trace_out;
  std::string events_out;
  std::string metrics_out;
  std::size_t events_capacity = 65536;
  double telemetry_linger_ms = 0;
  bool alerts = false;
  std::string alerts_out;
  bool analyze = false;
  std::string analyze_trace;
  std::string analyze_events;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--devices" && i + 1 < argc) {
      opts.devices = flag_number<int>(arg, argv[++i]);
      devices_set = true;
    } else if (arg == "--autoscale") {
      autoscale = true;
    } else if (arg == "--min-devices" && i + 1 < argc) {
      min_devices = flag_number<int>(arg, argv[++i]);
      min_devices_set = true;
    } else if (arg == "--max-devices" && i + 1 < argc) {
      max_devices = flag_number<int>(arg, argv[++i]);
    } else if (arg == "--scale-interval-ms" && i + 1 < argc) {
      scale_interval_ms = flag_number<double>(arg, argv[++i]);
      interval_set = true;
    } else if (arg == "--alloc-class-cap-kb" && i + 1 < argc) {
      opts.alloc_class_cap_bytes = flag_number<std::int32_t>(arg, argv[++i]) * std::int64_t{1024};
    } else if (arg == "--trace-replay" && i + 1 < argc) {
      trace_replay = argv[++i];
    } else if (arg == "--replay-speed" && i + 1 < argc) {
      replay_speed = flag_number<double>(arg, argv[++i]);
    } else if (arg == "--trace-gen" && i + 1 < argc) {
      trace_gen = argv[++i];
    } else if (arg == "--trace-save" && i + 1 < argc) {
      trace_save = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = flag_number<int>(arg, argv[++i]);
    } else if (arg == "--route" && i + 1 < argc) {
      route = argv[++i];
    } else if (arg == "--backend" && i + 1 < argc) {
      try {
        opts.backend = gpu::parse_backend_kind(argv[++i]);
      } catch (const gpu::BackendError& e) {
        std::fprintf(stderr, "saclo-serve: %s\n", e.what());
        return usage();
      }
    } else if (arg == "--frames" && i + 1 < argc) {
      frames = flag_number<int>(arg, argv[++i]);
    } else if (arg == "--exec-frames" && i + 1 < argc) {
      exec_frames = flag_number<int>(arg, argv[++i]);
    } else if (arg == "--height" && i + 1 < argc) {
      cfg.height = flag_number<std::int64_t>(arg, argv[++i]);
    } else if (arg == "--width" && i + 1 < argc) {
      cfg.width = flag_number<std::int64_t>(arg, argv[++i]);
    } else if (arg == "--queue-capacity" && i + 1 < argc) {
      opts.queue_capacity = flag_number<std::size_t>(arg, argv[++i]);
    } else if (arg == "--opt-level" && i + 1 < argc) {
      opt_level = flag_number<int>(arg, argv[++i]);
    } else if (arg == "--batch-max" && i + 1 < argc) {
      opts.batch_max = flag_number<int>(arg, argv[++i]);
    } else if (arg == "--batch-wait-ms" && i + 1 < argc) {
      opts.batch_wait_ms = flag_number<double>(arg, argv[++i]);
    } else if (arg == "--policy" && i + 1 < argc) {
      try {
        opts.policy = parse_sched_policy(argv[++i]);
      } catch (const ServeError& e) {
        std::fprintf(stderr, "saclo-serve: %s\n", e.what());
        return usage();
      }
    } else if (arg == "--no-preemption") {
      opts.preemption = false;
    } else if (arg == "--work-stealing") {
      opts.work_stealing = true;
    } else if (arg == "--shed-on-full") {
      opts.shed_on_full = true;
    } else if (arg == "--tenant" && i + 1 < argc) {
      tenants.emplace_back(argv[++i]);
    } else if (arg == "--priority" && i + 1 < argc) {
      try {
        priorities.push_back(parse_priority(argv[++i]));
      } catch (const ServeError& e) {
        std::fprintf(stderr, "saclo-serve: %s\n", e.what());
        return usage();
      }
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      deadlines_ms.push_back(flag_number<double>(arg, argv[++i]));
    } else if (arg == "--rate-limit" && i + 1 < argc) {
      opts.tenant_rate_limit = flag_number<double>(arg, argv[++i]);
    } else if (arg == "--rate-burst" && i + 1 < argc) {
      opts.tenant_rate_burst = flag_number<double>(arg, argv[++i]);
    } else if (arg == "--stagger-ms" && i + 1 < argc) {
      stagger_ms = flag_number<double>(arg, argv[++i]);
    } else if (arg == "--fault" && i + 1 < argc) {
      try {
        const fault::FaultPlan parsed = fault::FaultPlan::parse(argv[++i]);
        for (const fault::FaultSpec& spec : parsed.specs()) opts.fault_plan.add(spec);
      } catch (const fault::FaultPlanError& e) {
        std::fprintf(stderr, "saclo-serve: %s\n", e.what());
        return usage();
      }
    } else if (arg == "--max-retries" && i + 1 < argc) {
      opts.max_retries = flag_number<int>(arg, argv[++i]);
    } else if (arg == "--json") {
      emit_json = true;
    } else if (arg == "--checksum") {
      emit_checksum = true;
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_device = flag_number<int>(arg, argv[++i]);
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--events-out" && i + 1 < argc) {
      events_out = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--events-capacity" && i + 1 < argc) {
      events_capacity = flag_number<std::size_t>(arg, argv[++i]);
    } else if (arg == "--telemetry-port" && i + 1 < argc) {
      opts.telemetry_port = flag_number<int>(arg, argv[++i]);
    } else if (arg == "--telemetry-linger-ms" && i + 1 < argc) {
      telemetry_linger_ms = flag_number<double>(arg, argv[++i]);
    } else if (arg == "--alerts") {
      alerts = true;
    } else if (arg == "--alerts-out" && i + 1 < argc) {
      alerts_out = argv[++i];
      alerts = true;
    } else if (arg == "--analyze") {
      analyze = true;
    } else if (arg == "--analyze-trace" && i + 1 < argc) {
      analyze_trace = argv[++i];
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        analyze_events = argv[++i];
      }
    } else {
      return usage();
    }
  }
  if (!analyze_trace.empty()) return analyze_files(analyze_trace, analyze_events);
  // Any observability sink implies the structured event log (the merged
  // trace wants its instant events too); plain runs keep it off so the
  // dispatch hot path stays allocation-free.
  if (!events_out.empty() || !trace_out.empty() || analyze) {
    opts.event_log_capacity = events_capacity;
  }

  if (telemetry_linger_ms > 0 && opts.telemetry_port < 0) {
    std::fprintf(stderr, "saclo-serve: --telemetry-linger-ms requires --telemetry-port\n");
    return usage();
  }

  // Up-front validation of the elastic-fleet flag combos: every invalid
  // mix dies here with a one-line explanation, before any device spins
  // up.
  if (autoscale && devices_set) {
    std::fprintf(stderr,
                 "saclo-serve: --autoscale sizes the fleet from --min-devices/"
                 "--max-devices; drop --devices\n");
    return usage();
  }
  if (!autoscale && (min_devices_set || interval_set)) {
    std::fprintf(stderr, "saclo-serve: %s requires --autoscale\n",
                 min_devices_set ? "--min-devices" : "--scale-interval-ms");
    return usage();
  }
  if (replay_speed <= 0) {
    std::fprintf(stderr, "saclo-serve: --replay-speed must be positive, got %g\n",
                 replay_speed);
    return usage();
  }
  if (!trace_save.empty() && !trace_replay.empty()) {
    std::fprintf(stderr,
                 "saclo-serve: --trace-save generates a trace and exits; it cannot "
                 "be combined with --trace-replay\n");
    return usage();
  }
  if (!trace_gen.empty() && trace_save.empty()) {
    std::fprintf(stderr, "saclo-serve: --trace-gen needs --trace-save FILE\n");
    return usage();
  }
  AutoscalePolicy autoscale_policy;
  if (autoscale) {
    autoscale_policy.min_devices = min_devices;
    autoscale_policy.max_devices = max_devices > 0 ? max_devices : 4;
    autoscale_policy.interval_ms = scale_interval_ms;
    try {
      autoscale_policy.validate();
    } catch (const ServeError& e) {
      std::fprintf(stderr, "saclo-serve: %s\n", e.what());
      return usage();
    }
    opts.devices = autoscale_policy.min_devices;
    opts.max_devices = autoscale_policy.max_devices;
  } else if (max_devices > 0) {
    opts.max_devices = max_devices;
  }

  if (!trace_save.empty()) {
    try {
      const TrafficTrace trace = generate_trace(TrafficSpec::parse(trace_gen));
      if (!write_file(trace_save, trace.to_json())) return 1;
      std::printf("trace %s: %zu arrival(s) over %.0f ms (seed %llu)\n",
                  trace_save.c_str(), trace.arrivals.size(), trace.spec.duration_ms,
                  static_cast<unsigned long long>(trace.spec.seed));
      return 0;
    } catch (const ServeError& e) {
      std::fprintf(stderr, "saclo-serve: %s\n", e.what());
      return 1;
    }
  }
  TrafficTrace replay;
  if (!trace_replay.empty()) {
    std::ifstream in(trace_replay, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "saclo-serve: cannot read trace file %s\n",
                   trace_replay.c_str());
      return usage();
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    try {
      replay = TrafficTrace::from_json(text);
    } catch (const ServeError& e) {
      std::fprintf(stderr, "saclo-serve: %s: %s\n", trace_replay.c_str(), e.what());
      return 1;
    }
  }

  try {
    const Route mix[] = {Route::SacNongeneric, Route::SacGeneric, Route::Gaspard};
    ServeRuntime runtime(opts);
    if (runtime.telemetry() != nullptr) {
      // Printed to stderr so CI (and humans using port 0) learn the
      // actual bound port without parsing the report.
      std::fprintf(stderr, "saclo-serve: telemetry listening on http://127.0.0.1:%d\n",
                   runtime.telemetry()->port());
    }
    std::unique_ptr<Autoscaler> scaler;
    if (autoscale) scaler = std::make_unique<Autoscaler>(runtime, autoscale_policy);
    std::unique_ptr<AlertMonitor> monitor;
    if (alerts) monitor = std::make_unique<AlertMonitor>(runtime, AlertMonitorOptions{});

    int failed = 0;
    int shed = 0;
    std::uint64_t checksum = 1469598103934665603ull;  // FNV-1a offset basis
    if (!trace_replay.empty()) {
      const ReplayStats stats = replay_trace(runtime, replay, replay_speed);
      failed = static_cast<int>(stats.failed);
      shed = static_cast<int>(stats.shed);
      checksum = stats.checksum;
      std::fprintf(stderr,
                   "saclo-serve: replayed %lld arrival(s) in %.0f ms "
                   "(%lld completed, %lld shed, %lld failed)\n",
                   static_cast<long long>(stats.submitted), stats.elapsed_ms,
                   static_cast<long long>(stats.completed),
                   static_cast<long long>(stats.shed),
                   static_cast<long long>(stats.failed));
    } else {
      std::vector<std::future<JobResult>> futures;
      futures.reserve(static_cast<std::size_t>(jobs));
      for (int i = 0; i < jobs; ++i) {
        JobSpec spec;
        spec.route = route == "mixed" ? mix[i % 3] : parse_route(route);
        spec.config = cfg;
        spec.frames = frames;
        spec.exec_frames = exec_frames;
        spec.opt_level = opt_level;
        const std::size_t u = static_cast<std::size_t>(i);
        if (!tenants.empty()) spec.tenant = tenants[u % tenants.size()];
        if (!priorities.empty()) spec.priority = priorities[u % priorities.size()];
        if (!deadlines_ms.empty()) spec.deadline_ms = deadlines_ms[u % deadlines_ms.size()];
        futures.push_back(runtime.submit(spec));
        if (stagger_ms > 0 && i + 1 < jobs) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(stagger_ms));
        }
      }
      for (auto& f : futures) {
        try {
          JobResult r = f.get();
          if (emit_checksum) {
            // Submission order, not completion order: the digest is a
            // function of the job mix alone, so two runs of the same mix
            // on different backends (or fault plans) must agree.
            fnv1a(checksum, static_cast<std::uint64_t>(r.route));
            fnv1a(checksum, static_cast<std::uint64_t>(r.frames));
            fnv1a(checksum, static_cast<std::uint64_t>(r.last_output.elements()));
            for (std::int64_t i = 0; i < r.last_output.elements(); ++i) {
              fnv1a(checksum, static_cast<std::uint64_t>(
                                  static_cast<std::int64_t>(r.last_output[i])));
            }
          }
        } catch (const ShedError& e) {
          // Admission shed the job before it ran: expected under a rate
          // limit or --shed-on-full, not a failure of the fleet.
          ++shed;
          std::fprintf(stderr, "saclo-serve: job shed: %s\n", e.what());
        } catch (const fault::DeviceFault& e) {
          // Retry budget exhausted on an injected fault: report it and
          // keep going — a degraded fleet still renders its report.
          ++failed;
          std::fprintf(stderr, "saclo-serve: job failed: %s\n", e.what());
        }
      }
    }
    // Stop the controller before drain(): a scale-down racing the final
    // queue drain is legal but makes the printed report nondeterministic.
    if (scaler) {
      scaler->stop();
      const Autoscaler::Stats s = scaler->stats();
      std::fprintf(stderr,
                   "saclo-serve: autoscaler: %lld period(s), %lld up(s), %lld down(s)\n",
                   static_cast<long long>(s.periods), static_cast<long long>(s.ups),
                   static_cast<long long>(s.downs));
    }
    runtime.drain();
    if (monitor) {
      // One last evaluation over the drained fleet so the log ends on
      // the settled state, then stop the sampling thread.
      monitor->sample_now();
      monitor->stop();
      const std::size_t transitions = monitor->transitions().size();
      const std::size_t firing = monitor->active().size();
      std::fprintf(stderr, "saclo-serve: alerts: %zu transition(s), %zu still firing\n",
                   transitions, firing);
    }
    if (emit_checksum) std::printf("checksum %016llx\n", static_cast<unsigned long long>(checksum));

    if (trace_device >= 0) {
      std::printf("%s\n", runtime.device_trace_json(trace_device).c_str());
    } else if (emit_json) {
      std::printf("%s\n", runtime.metrics_json().c_str());
    } else {
      std::printf("%s", runtime.report().c_str());
    }
    if (analyze) {
      const obs::CriticalPath path =
          obs::analyze_critical_path(runtime.device_traces(), runtime.events());
      std::printf("%s", obs::critical_path_report(path).c_str());
    }
    bool sink_error = false;
    if (!trace_out.empty() && !write_file(trace_out, runtime.merged_trace_json())) {
      sink_error = true;
    }
    if (!events_out.empty() && !write_file(events_out, runtime.events_jsonl())) {
      sink_error = true;
    }
    if (!metrics_out.empty() && !write_file(metrics_out, runtime.metrics_prometheus())) {
      sink_error = true;
    }
    if (!alerts_out.empty() && monitor &&
        !write_file(alerts_out, monitor->transitions_jsonl())) {
      sink_error = true;
    }
    if (sink_error) return 1;
    if (telemetry_linger_ms > 0 && runtime.telemetry() != nullptr) {
      // Keep the endpoint scrapeable after the run settles — the window
      // CI uses to compare a live scrape against --metrics-out.
      std::fprintf(stderr, "saclo-serve: telemetry lingering %.0f ms\n",
                   telemetry_linger_ms);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(telemetry_linger_ms));
    }
    if (shed > 0) {
      std::fprintf(stderr, "saclo-serve: %d job(s) shed by admission\n", shed);
    }
    if (failed > 0) {
      std::fprintf(stderr, "saclo-serve: %d job(s) failed permanently\n", failed);
      return 1;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "saclo-serve: %s\n", e.what());
    return 1;
  }
  return 0;
} catch (const tools::InvalidFlagValue& e) {
  std::fprintf(stderr, "saclo-serve: %s\n", e.what());
  return 2;
}
