#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/downscaler/pipelines.hpp"
#include "core/fmt.hpp"
#include "core/json.hpp"
#include "gpu/device.hpp"

// Git revision baked in by bench/CMakeLists.txt (git rev-parse at
// configure time); "unknown" when building outside a checkout.
#ifndef SACLO_GIT_SHA
#define SACLO_GIT_SHA "unknown"
#endif

namespace saclo::bench {

/// Number of frames of the paper's evaluation runs.
inline constexpr int kFrames = 300;
inline constexpr int kChannels = 3;

inline void print_header(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

/// One "paper vs simulated" comparison line.
inline void compare_row(const std::string& label, double paper_us, double sim_us) {
  std::printf("%-34s paper %10.0f us   simulated %10.0f us   ratio %.2f\n", label.c_str(),
              paper_us, sim_us, paper_us > 0 ? sim_us / paper_us : 0.0);
}

inline void seconds_row(const std::string& label, double us) {
  std::printf("%-44s %8.2f s\n", label.c_str(), us / 1e6);
}

/// Machine-readable result writer: every bench emits a standardized
/// `BENCH_<name>.json` next to its stdout report so CI can archive runs
/// and diff them across commits. Schema:
///
///   {"bench": "<name>", "git_sha": "<rev>",
///    "device": {"name", "peak_gflops", "mem_bandwidth_gbs", ...},
///    "scalars": {...},              // bench-specific totals/ratios
///    "variants": [{"name", "us", ...extra numbers}, ...]}
///
/// `us` is simulated microseconds unless the bench says otherwise.
class BenchJson {
 public:
  explicit BenchJson(std::string name, const gpu::DeviceSpec& device = gpu::gtx480())
      : name_(std::move(name)), device_(device) {}

  void scalar(const std::string& key, double value) { scalars_.emplace_back(key, value); }

  /// One measured variant, with optional extra numeric fields.
  void variant(const std::string& variant_name, double us,
               std::vector<std::pair<std::string, double>> extra = {}) {
    variants_.push_back({variant_name, us, std::move(extra)});
  }

  std::string json() const {
    std::string out = cat("{\"bench\":", json_string(name_), ",\"git_sha\":",
                          json_string(git_sha()), ",\"device\":{\"name\":",
                          json_string(device_.name), ",\"sm_count\":", device_.sm_count,
                          ",\"clock_ghz\":", fixed(device_.clock_ghz, 3),
                          ",\"peak_gflops\":", fixed(device_.peak_gflops(), 1),
                          ",\"mem_bandwidth_gbs\":", fixed(device_.mem_bandwidth_gbs, 1),
                          ",\"pcie_h2d_gbs\":", fixed(device_.pcie_h2d_gbs, 2),
                          ",\"pcie_d2h_gbs\":", fixed(device_.pcie_d2h_gbs, 2), "}");
    out += ",\"scalars\":{";
    for (std::size_t i = 0; i < scalars_.size(); ++i) {
      if (i > 0) out += ",";
      out += cat(json_string(scalars_[i].first), ":", fixed(scalars_[i].second, 3));
    }
    out += "},\"variants\":[";
    for (std::size_t i = 0; i < variants_.size(); ++i) {
      const Variant& v = variants_[i];
      if (i > 0) out += ",";
      out += cat("{\"name\":", json_string(v.name), ",\"us\":", fixed(v.us, 3));
      for (const auto& [key, value] : v.extra) {
        out += cat(",", json_string(key), ":", fixed(value, 3));
      }
      out += "}";
    }
    return out + "]}";
  }

  /// Writes BENCH_<name>.json into the working directory (CI archives
  /// the BENCH_*.json glob as the run's artifact).
  void write() const {
    const std::string path = cat("BENCH_", name_, ".json");
    std::ofstream(path) << json() << "\n";
    std::printf("\nwrote %s (git %s)\n", path.c_str(), git_sha().c_str());
  }

  static std::string git_sha() {
    std::string sha = SACLO_GIT_SHA;
    if (sha == "unknown") {
      if (const char* env = std::getenv("GITHUB_SHA")) sha = env;
    }
    return sha;
  }

 private:
  struct Variant {
    std::string name;
    double us = 0;
    std::vector<std::pair<std::string, double>> extra;
  };

  std::string name_;
  gpu::DeviceSpec device_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<Variant> variants_;
};

/// Console reporter that also records every micro-benchmark run into a
/// BenchJson (as real-wall-clock variants), so BM_*-only benches get
/// the standardized BENCH_<name>.json for free:
///
///   benchmark::Initialize(&argc, argv);
///   BenchJson out("my_bench");
///   JsonCapturingReporter reporter(out);
///   benchmark::RunSpecifiedBenchmarks(&reporter);
///   out.write();
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapturingReporter(BenchJson& out) : out_(&out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred || run.iterations <= 0) {
        continue;
      }
      const double iters = static_cast<double>(run.iterations);
      out_->variant(run.benchmark_name(), run.real_accumulated_time / iters * 1e6,
                    {{"cpu_us", run.cpu_accumulated_time / iters * 1e6},
                     {"iterations", iters}});
    }
  }

 private:
  BenchJson* out_;
};

}  // namespace saclo::bench
