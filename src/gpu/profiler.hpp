#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gpu/stream.hpp"

namespace saclo::gpu {

/// Kind of a profiled operation — selects the section of the
/// nvprof-style report.
enum class OpKind { Kernel, MemcpyHtoD, MemcpyDtoH, Host };

/// The stable category name of an operation kind ("kernel",
/// "memcpy_h2d", "memcpy_d2h", "host"): the `cat` of a Chrome trace
/// span and the category column of the critical-path report.
const char* op_kind_category(OpKind kind);

/// The disjoint union of [start, end) spans in start order: spans that
/// overlap or touch merge into one.
std::vector<std::pair<double, double>> merge_spans(std::vector<std::pair<double, double>> spans);

/// Accumulates simulated times per named operation and renders them as
/// the nvprof-style tables the paper reports (Tables I and II). When
/// operations are scheduled through the stream timeline it also keeps
/// every per-op `{stream, start, end}` interval, from which it renders
/// a per-stream timeline/overlap report (the Chrome trace of the
/// intervals is obs::merged_chrome_trace).
class Profiler {
 public:
  /// Adds `us` microseconds and `calls` invocations to `name`
  /// (aggregate only — no interval). Allocates only for a new row.
  void record(std::string_view name, OpKind kind, std::int64_t calls, double us);

  /// Adds one scheduled occurrence of `name` with its placement on the
  /// stream timeline. Also accumulates into the aggregate row.
  void record_interval(std::string_view name, OpKind kind, StreamId stream, double start_us,
                       double end_us);

  /// Tags every subsequently recorded interval with a job's trace id
  /// and failover attempt (the serve dispatcher brackets each job run
  /// with set_trace/clear_trace). `batch` is the coalesced-batch id the
  /// job ran in (the first member's job id), 0 when unbatched. Three
  /// stores — no allocation, so the annotation is free on the dispatch
  /// hot path.
  void set_trace(std::uint64_t trace_id, std::uint32_t attempt, std::uint64_t batch = 0) {
    trace_id_ = trace_id;
    attempt_ = attempt;
    batch_ = batch;
  }
  void clear_trace() { set_trace(0, 0); }
  std::uint64_t current_trace() const { return trace_id_; }

  struct Row {
    std::string name;
    OpKind kind = OpKind::Kernel;
    std::int64_t calls = 0;
    double total_us = 0.0;
  };

  /// One scheduled occurrence of an operation on a stream. It names its
  /// operation by its row (an index into rows(), or into the names of a
  /// Snapshot), so recording one copies no string. When a serving job
  /// was active (set_trace) the interval carries the job's trace id and
  /// failover attempt, so the fleet-merged Chrome trace can attribute
  /// every kernel/transfer to the request that caused it.
  struct Interval {
    std::uint32_t row = 0;
    OpKind kind = OpKind::Kernel;
    StreamId stream = kDefaultStream;
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint64_t trace_id = 0;  ///< owning job (0 = untraced)
    std::uint32_t attempt = 0;   ///< the job's failover hop
    std::uint64_t batch = 0;     ///< coalesced batch the job ran in (0 = unbatched)

    double duration_us() const { return end_us - start_us; }
  };

  /// Rows in first-recorded order (rows only append until clear()).
  const std::vector<Row>& rows() const { return rows_; }
  /// The operation name of an interval this profiler recorded.
  const std::string& name_of(const Interval& interval) const { return rows_[interval.row].name; }
  double total_us() const;
  double total_us(OpKind kind) const;
  double us_for(std::string_view name) const;

  /// Scheduled intervals in issue order (empty when only aggregate
  /// records were made). NOT safe against a concurrent recorder — use
  /// snapshot() for that.
  const std::vector<Interval>& intervals() const { return intervals_; }

  /// The intervals recorded so far and the row names they refer to.
  struct Snapshot {
    std::vector<std::string> names;  ///< by Interval::row
    std::vector<Interval> intervals;
  };
  /// A copy safe to take while another thread is still recording (the
  /// live /debug/trace endpoint snapshots every device's profiler
  /// mid-run). Appending a row or an interval and this are the only
  /// members that take the lock: post-run readers keep their lock-free
  /// const accessors.
  Snapshot snapshot() const;

  /// Latest interval end (the simulated wall clock of the recorded
  /// schedule); 0 with no intervals.
  double makespan_us() const;
  /// Sum of interval durations on one stream.
  double stream_busy_us(StreamId stream) const;

  /// Overlap accounting over the recorded intervals.
  struct OverlapStats {
    double serialized_us = 0.0;       ///< sum of every interval duration
    double makespan_us = 0.0;         ///< wall clock of the schedule
    double transfer_us = 0.0;         ///< total H2D + D2H time
    double hidden_transfer_us = 0.0;  ///< transfer time overlapped with kernel execution
    double saved_us() const { return serialized_us - makespan_us; }
    double hidden_fraction() const {
      return transfer_us > 0.0 ? hidden_transfer_us / transfer_us : 0.0;
    }
  };
  OverlapStats overlap_stats() const;

  void clear();

  /// Renders the table in the layout of the paper's Table I/II:
  ///   Operation | #calls | GPU time(usec) | GPU time (%)
  /// with a total row in seconds.
  std::string table() const;

  /// Renders the per-stream timeline report: ops, busy time and span
  /// per stream, then the serialized-vs-makespan overlap summary.
  std::string timeline() const;

 private:
  /// The row of `name`, appended (under the lock) when new.
  std::uint32_t row_of(std::string_view name, OpKind kind);

  std::vector<Row> rows_;
  std::map<std::string, std::uint32_t, std::less<>> index_;
  mutable std::mutex intervals_mutex_;  ///< recorder vs. live-snapshot only
  std::vector<Interval> intervals_;
  std::uint64_t trace_id_ = 0;
  std::uint32_t attempt_ = 0;
  std::uint64_t batch_ = 0;
};

}  // namespace saclo::gpu
