#pragma once

// Per-layer metrics of the traced run. Two sources:
//  * the component replay: each distinct job kind of the workload is run
//    once more through the public chain of every layer (sac, sac_cuda,
//    arrayol, opt, gaspard, apps) and through the frame-loop drivers on
//    a VirtualGpu of the workload's backend, every call wrapped in a span;
//  * the serving loop itself, timed from the outside (submit calls,
//    scrapes) and read back from JobResult, FleetMetrics::snapshot() and
//    allocator_stats().

#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct CatalogEntry {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
};
/// Every per-layer metric the traced run reports, in a fixed order.
const std::vector<CatalogEntry>& per_layer_catalog();
/// Every end-to-end metric the untraced run reports in its result line.
/// latency_tail_ms and fail_ratio are printed beside them, not declared:
/// see README.md.
const std::vector<CatalogEntry>& end_to_end_catalog();

/// Per-layer values plus, for each metric the workload does not load,
/// why it reads 0.
struct LayerReport {
  Metrics metrics;
  std::map<std::string, std::string> absent;
  Accounting acct;  ///< the replayed jobs, checked against the references
  std::vector<std::string> mismatch_notes;

  void set(const std::string& name, double value);
  void mark_absent(const std::string& name, const std::string& why);
};
/// All catalog metrics at 0, each marked absent until a source fills it.
LayerReport empty_layer_report();

/// The component replay (see the file comment). Also replays every kind
/// exactly as serve::reference_run does, on a fresh device, and checks
/// the output, the operation counts and, on `sim`, the simulated wall
/// time of the job against the reference.
void replay_components(const Workload& w, const std::vector<Reference>& refs,
                       SpanRecorder& spans, LayerReport& report);

/// The serving layers, from the traced episodes of the run: submit and
/// scrape timings, JobResult's split of each job, and the fleet counters.
/// The tracing overhead compares the traced with the untraced episodes.
void serving_layers(const Workload& w, const RunResult& run, LayerReport& report);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double nearest_rank(std::vector<double> values, double q);

}  // namespace perfbench
