// Wall-clock benchmark of the SaCLO reproduction and its serving stack.
//
//   perfbench --workload <paper_sim|host_exec|replay_slo> --seed <n>
//             --seconds <s> --trace <0|1> [--git-sha X] [--source-digest Y]
//   perfbench --self-test
//   perfbench --list-metrics
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the separate traced run: half the time untraced, half with spans,
// then the component replay; it reports the per-layer metrics. Either
// way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 ok, 1 an output disagreed with the reference or a job
// failed, 2 bad usage or an error, 3 an open-loop run whose generator
// fell behind schedule (its latencies are not reported).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "layers.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
int run_self_tests();
}

using namespace perfbench;

namespace {

/// A generator whose median lag exceeds this fell behind its schedule:
/// the run is invalid rather than reporting latencies of a load it did
/// not offer. (Single arrivals delayed by a slow scrape on the generator
/// thread are part of the workload and show in the tail, not here.)
constexpr double kMaxMedianLagMs = 5.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool self_test = false;
  bool list_metrics = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --self-test | --list-metrics\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        a.trace = std::stoi(value());
      } else if (k == "--git-sha") {
        a.git_sha = value();
      } else if (k == "--source-digest") {
        a.source_digest = value();
      } else if (k == "--self-test") {
        a.self_test = true;
      } else if (k == "--list-metrics") {
        a.list_metrics = true;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + k);
    }
  }
  if (a.self_test || a.list_metrics) return a;
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

/// A number with all its digits, as JSON.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += (first ? "" : ", ") + quote(name) + ": {\"value\": " + num(metric.value) +
           ", \"unit\": " + quote(metric.unit) + "}";
    first = false;
  }
  return out + "}";
}

struct Meta {
  std::string json;
  void add(const std::string& key, const std::string& raw_value) {
    json += (json.empty() ? "" : ", ") + quote(key) + ": " + raw_value;
  }
  void add(const std::string& key, double v) { add(key, num(v)); }
};

std::string out_dir() {
  const std::filesystem::path dir = ".bench_out";
  std::filesystem::create_directories(dir);
  return dir.string();
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload);
  const Clock::time_point origin = Clock::now();
  SpanRecorder spans(origin);
  SpanRecorder* traced = args.trace == 1 ? &spans : nullptr;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);

  // Correctness references: once per distinct job, outside every timed window.
  std::vector<Reference> refs;
  {
    ScopedSpan s(traced, "bench.references", 0, 0);
    refs = compute_references(w);
    std::printf("references: %zu kinds in %.2f s\n", refs.size(), s.finish() / 1000.0);
  }

  // Every episode sets a fleet up afresh (timed as setup_s) and drives
  // its share of the run on it.
  const RunResult run = run_episodes(w, refs, args.seed, args.seconds, traced);

  Meta meta;
  meta.add("workload", quote(w.name));
  meta.add("seed", static_cast<double>(args.seed));
  meta.add("seconds", args.seconds);
  meta.add("trace", static_cast<double>(args.trace));
  meta.add("git_sha", quote(args.git_sha));
  meta.add("source_digest", quote(args.source_digest));
  meta.add("build_type", quote(PERFBENCH_BUILD_TYPE));
  meta.add("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  meta.add("threads", static_cast<double>(w.threads));
  meta.add("devices", static_cast<double>(w.options.devices));
  meta.add("workers_per_device", static_cast<double>(w.options.workers_per_device));
  meta.add("backend", quote(saclo::gpu::backend_kind_name(w.options.backend)));
  meta.add("load", quote(w.open_loop ? "open" : "closed"));
  if (w.open_loop) {
    meta.add("offered_rate_hz", w.offered_rate_hz);
  } else {
    meta.add("clients", 1.0);
  }

  Accounting acct;
  std::vector<std::string> notes;
  Metrics metrics;
  std::map<std::string, std::string> absent;
  double lag_p99 = 0;
  double lag_p50 = 0;
  double tail_ms = 0;
  const auto fold = [&](const LoopResult& loop) {
    acct.submitted += loop.acct.submitted;
    acct.completed += loop.acct.completed;
    acct.failed += loop.acct.failed;
    acct.shed += loop.acct.shed;
    acct.mismatches += loop.acct.mismatches;
    notes.insert(notes.end(), loop.mismatch_notes.begin(), loop.mismatch_notes.end());
    if (w.open_loop) {
      lag_p99 = std::max(lag_p99, nearest_rank(loop.lags_ms, 0.99));
      lag_p50 = std::max(lag_p50, median(loop.lags_ms));
    }
  };

  if (args.trace == 0) {
    const LoopResult& loop = run.untraced;
    fold(loop);
    const double gold =
        loop.gold_submitted > 0
            ? static_cast<double>(loop.gold_met) / static_cast<double>(loop.gold_submitted)
            : 0.0;
    metrics["setup_s"] = {median(run.setup_s), "s"};
    metrics["frames_per_s"] = {loop.elapsed_s > 0 ? loop.frames / loop.elapsed_s : 0, "frames/s"};
    metrics["latency_p50_ms"] = {latency_p50_ms(w, loop), "ms"};
    metrics["gold_slo_attainment"] = {gold, "ratio"};
    metrics["peak_rss_mb"] = {run.first_episode_rss_mb, "MB"};
    meta.add("latency_samples", static_cast<double>(loop.jobs.size()));
    tail_ms = latency_tail_ms(w, loop);
    meta.add("latency_tail_ms", tail_ms);
    meta.add("episodes", static_cast<double>(run.setup_s.size()));
    meta.add("gold_submitted", static_cast<double>(loop.gold_submitted));
    meta.add("gold_met", static_cast<double>(loop.gold_met));
    meta.add("backlog_at_end", static_cast<double>(loop.backlog_at_end));
    for (std::size_t k = 0; k < w.kinds.size(); ++k) {
      std::vector<double> v;
      for (const JobRecord& j : loop.jobs) {
        if (j.kind == static_cast<int>(k)) v.push_back(j.latency_ms);
      }
      const Tail t = tail_percentile(v);
      std::printf("  kind %-15s jobs %5zu  p50 %9.3f ms  tail p%.2f %9.3f ms (%lld beyond)\n",
                  w.kinds[k].label.c_str(), v.size(), median(v), t.percentile, t.value,
                  static_cast<long long>(t.beyond));
    }
  } else {
    fold(run.untraced);
    fold(run.traced);
    LayerReport report = empty_layer_report();
    serving_layers(w, run, report);
    {
      ScopedSpan s(&spans, "bench.component_replay", 0, 0);
      replay_components(w, refs, spans, report);
    }
    acct.submitted += report.acct.submitted;
    acct.completed += report.acct.completed;
    acct.mismatches += report.acct.mismatches;
    notes.insert(notes.end(), report.mismatch_notes.begin(), report.mismatch_notes.end());
    metrics = report.metrics;
    absent = report.absent;

    std::printf("\nper-layer self time (traced run)\n%-32s %7s %12s %12s\n", "span", "count",
                "total ms", "self ms");
    for (const auto& row : spans.self_times()) {
      std::printf("%-32s %7lld %12.3f %12.3f\n", row.name.c_str(),
                  static_cast<long long>(row.count), row.total_ms, row.self_ms);
    }
    std::printf("tracing overhead: traced p50 %.3f ms vs untraced %.3f ms (%+.2f%%)\n",
                latency_p50_ms(w, run.traced), latency_p50_ms(w, run.untraced),
                100.0 * metrics["bench.trace_overhead"].value);
    const std::string path = out_dir() + "/" + w.name + "-seed" + std::to_string(args.seed) +
                             ".trace.json";
    std::ofstream(path) << spans.chrome_trace_json();
    std::printf("wrote %s\n", path.c_str());
  }

  meta.add("machine_probe_ms", median(run.probe_ms));
  meta.add("generator_lag_p50_ms", lag_p50);
  meta.add("generator_lag_p99_ms", lag_p99);
  const bool valid = !w.open_loop || lag_p50 <= kMaxMedianLagMs;
  meta.add("valid", valid ? "true" : "false");
  meta.add("submitted", static_cast<double>(acct.submitted));
  meta.add("completed", static_cast<double>(acct.completed));
  meta.add("failed", static_cast<double>(acct.failed));
  meta.add("shed", static_cast<double>(acct.shed));
  meta.add("mismatches", static_cast<double>(acct.mismatches));
  meta.add("fail_ratio", acct.fail_ratio());

  std::printf("\n");
  for (const auto& [name, m] : metrics) {
    std::printf("%-48s %16.6f %s%s\n", name.c_str(), m.value, m.unit.c_str(),
                absent.count(name) != 0 ? ("   (absent: " + absent[name] + ")").c_str() : "");
  }
  if (args.trace == 0) {
    std::printf("%-48s %16.6f %s   (per kind above; not declared: see README.md)\n",
                "latency_tail_ms", tail_ms, "ms");
  }
  std::printf("%-48s %16.6f %s   (%lld failed + %lld shed + %lld mismatched of %lld)\n",
              "fail_ratio", acct.fail_ratio(), "ratio", static_cast<long long>(acct.failed),
              static_cast<long long>(acct.shed), static_cast<long long>(acct.mismatches),
              static_cast<long long>(acct.submitted));
  for (const std::string& n : notes) std::printf("MISMATCH %s\n", n.c_str());
  if (!acct.identity_holds()) {
    std::printf("ACCOUNTING completed + failed + shed != submitted\n");
  }

  const std::string result_path = out_dir() + "/" + w.name + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  std::to_string(args.trace) + ".json";
  std::ofstream(result_path) << "{\"meta\": {" << meta.json
                             << "}, \"metrics\": " << metrics_json(metrics) << "}\n";
  std::printf("meta {%s}\n", meta.json.c_str());
  if (!valid) {
    std::fprintf(stderr,
                 "perfbench: run invalid: the generator fell behind schedule (median lag %.3f "
                 "ms > %.1f ms); latencies not reported\n",
                 lag_p50, kMaxMedianLagMs);
    return 3;
  }

  const std::int64_t failed = acct.failed + acct.shed + acct.mismatches;
  const bool correct = acct.mismatches == 0 && acct.failed == 0 && acct.identity_holds();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(acct.submitted),
              static_cast<long long>(failed), metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int list_metrics() {
  for (const auto* cat : {&end_to_end_catalog(), &per_layer_catalog()}) {
    for (const CatalogEntry& e : *cat) {
      std::printf("%s %s %s %s\n", cat == &end_to_end_catalog() ? "end_to_end" : "per_layer",
                  e.name.c_str(), e.unit.c_str(), e.better.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.list_metrics) return list_metrics();
    if (args.self_test) return run_self_tests();
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
