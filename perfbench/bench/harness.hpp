#pragma once

// Harness arithmetic shared by every workload: the latency statistics,
// the open-loop latency rule, the accounting identity, the seeded
// sampler and the in-memory span recorder of the traced run. Nothing
// here calls into the program under test.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Median of an unsorted sample (mean of the middle pair on even sizes);
/// 0 on an empty sample.
double median(std::vector<double> values);

/// The tail rule: the highest percentile that still has at least
/// `min_beyond` samples strictly above it in rank, i.e. the order
/// statistic with exactly `min_beyond` samples after it. `percentile`
/// is where that sample sits (100 * rank / n), `beyond` how many
/// samples lie past it. With n <= 2 * min_beyond no percentile above
/// the median qualifies: the rule then falls back to the median and
/// reports `beyond` as the samples above it.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::int64_t beyond = 0;
  std::int64_t samples = 0;
};
Tail tail_percentile(std::vector<double> values, std::int64_t min_beyond = 10);

/// Geometric mean of positive values (0 when empty or any value <= 0).
double geomean(const std::vector<double>& values);

/// Open-loop latency of one job: time from when the arrival was due to
/// be sent until it completed. The generator's lag (actual submit -
/// due) is added to the runtime's own submit-to-completion latency, so
/// a stalled generator shows up in every request it delayed.
double open_loop_latency_ms(Clock::time_point due, Clock::time_point submitted,
                            double runtime_latency_us);

/// Outcome counts of a run. Every submission ends exactly one way, so
/// `completed + failed + shed == submitted` must hold; mismatches are
/// completed jobs whose output disagreed with the reference.
struct Accounting {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t shed = 0;
  std::int64_t mismatches = 0;

  bool identity_holds() const { return completed + failed + shed == submitted; }
  /// (failed + shed + mismatches) / submitted; 0 with no submissions.
  double fail_ratio() const;
};

/// Uniform draw in [0, 1) from the top 53 bits of one engine output —
/// hand-rolled so a seed yields the same inputs on every standard
/// library (std::*_distribution is implementation-defined).
inline double u01(std::mt19937_64& rng) { return static_cast<double>(rng() >> 11) * 0x1.0p-53; }

/// Seeded sequence of kind indices in blocks: every block of `kinds`
/// entries is a fresh permutation of [0, kinds). The mix is therefore
/// exactly balanced over any whole number of blocks while the order
/// depends on the seed.
std::vector<int> balanced_sequence(std::uint64_t seed, int kinds, int length);

/// Time of a fixed single-threaded integer workload (~50 ms on a 4-core
/// VM): a probe of how fast the machine is right now.
double machine_probe_ms();

/// FNV-1a over an int64 sequence — the output fingerprint compared with
/// the reference run.
std::uint64_t fnv1a(const std::int64_t* data, std::int64_t n);

/// In-memory span store of the traced run: name, start, end, the span
/// that caused it, and the job it belongs to. Written out once at exit
/// as a Chrome trace and folded into a per-name self-time table.
class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t job = 0;     ///< 0 = not tied to one job
    std::string name;
    double start_us = 0;  ///< relative to the recorder's origin
    double end_us = 0;
    int tid = 0;
  };

  /// Reserves an id for a span whose children are recorded before it.
  std::uint64_t reserve();
  /// Records a finished span under a reserved id (or a fresh one when
  /// id == 0) and returns its id.
  std::uint64_t add(std::uint64_t id, const std::string& name, std::uint64_t parent,
                    std::uint64_t job, Clock::time_point start, Clock::time_point end, int tid);

  std::vector<Span> spans() const;

  struct SelfRow {
    std::string name;
    std::int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  /// Per-name totals: a span's self time is its duration minus the part
  /// of its interval that its child spans cover (children clipped to the
  /// parent, overlapping children counted once).
  std::vector<SelfRow> self_times() const;

  /// Chrome trace_event JSON: one complete event per span; args carry
  /// the span id, its parent and the job id, so every span of one job
  /// can be found by id.
  std::string chrome_trace_json() const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;  // guarded by mutex_
  std::vector<Span> spans_;    // guarded by mutex_
};

/// RAII helper: times a scope and records it as a span on exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t parent, std::uint64_t job,
             int tid = 0)
      : recorder_(recorder),
        name_(std::move(name)),
        parent_(parent),
        job_(job),
        tid_(tid),
        id_(recorder != nullptr ? recorder->reserve() : 0),
        start_(Clock::now()) {}
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }
  /// Ends the span now and returns its duration in milliseconds.
  double finish() {
    if (!done_) {
      end_ = Clock::now();
      done_ = true;
      if (recorder_ != nullptr) recorder_->add(id_, name_, parent_, job_, start_, end_, tid_);
    }
    return ms_between(start_, end_);
  }

 private:
  SpanRecorder* recorder_;
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t job_;
  int tid_;
  std::uint64_t id_;
  Clock::time_point start_;
  Clock::time_point end_;
  bool done_ = false;
};

}  // namespace perfbench
