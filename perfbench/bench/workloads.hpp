#pragma once

// The three seeded workloads and the loops that drive them through the
// public API of `serve`: set-up (runtime construction plus one warm-up
// job of every kind on every device), the closed loop, the open-loop
// trace replay, and the per-job check against serve::reference_run.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "serve/scheduler.hpp"
#include "serve/traffic.hpp"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One distinct job of a workload: a (route, geometry, opt level,
/// frames) spec. `route` is the metric suffix shared by every kind on
/// the same compilation route (sacng, sacg, gaspard_o0, gaspard_o2).
struct JobKind {
  std::string label;
  std::string route;
  saclo::serve::JobSpec spec;
};

struct Workload {
  std::string name;
  bool open_loop = false;
  saclo::serve::ServeRuntime::Options options;
  std::vector<JobKind> kinds;
  /// A run is split into this many episodes, each on a freshly set-up
  /// fleet: setup_s is the median of their set-ups, and every episode
  /// starts from the same state (a fleet's per-job cost grows with the
  /// history it has recorded).
  int episodes = 3;
  /// Threads the run uses at most: main (the client or the generator),
  /// one dispatcher per device and the pool helpers of each device
  /// (workers - 1).
  int threads = 0;
  bool executes = false;  ///< whether job frames execute functionally
  // Open loop only.
  double offered_rate_hz = 0;
  double scrape_period_ms = 0;  ///< metrics_prometheus() period
  double export_period_ms = 0;  ///< merged_trace_json() period
};

/// Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name);

/// What every job of one kind must reproduce.
struct Reference {
  std::uint64_t checksum = 0;
  std::int64_t elements = 0;
  saclo::apps::OpBreakdown ops;
  double sim_wall_us = 0;
};
/// serve::reference_run once per kind, on the workload's backend.
std::vector<Reference> compute_references(const Workload& w);
std::uint64_t output_checksum(const saclo::IntArray& a);
/// Compares a result with its kind's reference: output checksum and
/// operation counts always; simulated op times too on `sim`
/// (on `host` they are measured wall time). Returns "" on a match.
std::string mismatch(const Workload& w, const Reference& ref, const saclo::serve::JobResult& r);

struct Fleet {
  std::unique_ptr<saclo::serve::ServeRuntime> runtime;
  double setup_s = 0;
};
/// Constructs the runtime and places one warm-up job of every kind on
/// every device, so each dispatcher has compiled every driver and its
/// allocator cache holds every buffer size. Timed as setup_s.
Fleet set_up(const Workload& w);

struct JobRecord {
  int kind = 0;
  std::uint64_t seq = 0;  ///< the benchmark's own job number
  int frames = 0;
  double latency_ms = 0;  ///< closed: submit -> completion; open: due -> completion
  double lag_ms = 0;      ///< open loop: actual submit - due
  double submit_call_us = 0;
  double queue_wait_us = 0;
  double exec_us = 0;
  double runtime_latency_us = 0;
  bool done = false;  ///< completed and matched the reference
};

/// Fleet counters over a loop: FleetMetrics::snapshot(),
/// allocator_stats() and the event log, after minus before.
struct FleetCounters {
  std::int64_t batches = 0;
  std::int64_t preemptions = 0;
  std::int64_t alloc_hits = 0;
  std::int64_t alloc_misses = 0;
  double peak_device_mb = 0;  ///< max over devices of the pool high-water mark
  std::uint64_t events_dropped = 0;
};

struct LoopResult {
  Accounting acct;
  std::vector<JobRecord> jobs;  ///< completed jobs
  std::int64_t frames = 0;
  double elapsed_s = 0;
  std::int64_t gold_submitted = 0;
  std::int64_t gold_met = 0;
  std::vector<double> lags_ms;  ///< open loop: every arrival's lag
  std::vector<double> scrape_ms;
  std::vector<double> export_ms;
  double trace_mb = 0;
  std::size_t backlog_at_end = 0;  ///< open loop: jobs in flight when generation ended
  FleetCounters fleet;
  std::vector<std::string> mismatch_notes;
};
/// Pools `part` into `into` (counts and samples add up; peaks take the max).
void append(LoopResult& into, const LoopResult& part);

/// Closed loop: one client submits its next job only after the previous
/// one completed, until `seconds` elapsed. Job order is a seeded
/// balanced sequence. Job ids start above `id_base`.
LoopResult run_closed_loop(const Workload& w, saclo::serve::ServeRuntime& runtime,
                           const std::vector<Reference>& refs, std::uint64_t seed, double seconds,
                           SpanRecorder* spans, std::uint64_t id_base = 0);

/// The seeded arrival trace of the open loop: generate_trace over the
/// ci_default() classes without the burst overlay, truncated to
/// offered_rate_hz * seconds arrivals and rescaled in time so the
/// offered rate is exactly offered_rate_hz, with the class mix
/// stratified so every seed offers the same mix.
saclo::serve::TrafficTrace make_trace(const Workload& w, std::uint64_t seed, double seconds);

/// Open loop: try_submit at each due time from one generator thread,
/// which also scrapes metrics_prometheus() and merged_trace_json() at
/// fixed periods.
LoopResult run_open_loop(const Workload& w, saclo::serve::ServeRuntime& runtime,
                         const std::vector<Reference>& refs,
                         const saclo::serve::TrafficTrace& trace, SpanRecorder* spans,
                         std::uint64_t id_base = 0);

/// A whole run: w.episodes episodes of seconds / w.episodes each, every
/// one on a freshly set-up fleet. With `spans` (the traced run) every
/// odd episode records spans and lands in `traced`; the others, and
/// every episode of an untraced run, land in `untraced`.
struct RunResult {
  LoopResult untraced;
  LoopResult traced;
  std::vector<double> setup_s;
  /// machine_probe_ms() before each episode's loop: tells a slower
  /// machine apart from a slower program when two runs disagree.
  std::vector<double> probe_ms;
  /// Peak resident set when the first episode ended: the references,
  /// one set-up and one loop. Later episodes tear a fleet down and build
  /// the next in the same process; the heap fragmentation that leaves
  /// behind depends on allocation timing, not on the workload.
  double first_episode_rss_mb = 0;
};
RunResult run_episodes(const Workload& w, const std::vector<Reference>& refs,
                       std::uint64_t seed, double seconds, SpanRecorder* spans);

/// Latency of each kind's median, combined by geometric mean so every
/// kind weighs the same and the figure never jumps between kinds.
double latency_p50_ms(const Workload& w, const LoopResult& loop);
/// The same for the tail: each kind's tail_percentile(), geometric mean
/// over kinds.
double latency_tail_ms(const Workload& w, const LoopResult& loop);

/// Peak resident set of the process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
