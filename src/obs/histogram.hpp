#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace saclo::obs {

/// Fixed-memory log-bucketed histogram for latency-style samples in
/// microseconds. Replaces the metrics registry's unbounded per-job
/// sample vectors: memory is a constant 128 counters no matter how many
/// jobs a long-running fleet serves, while percentiles stay within one
/// bucket width (buckets grow by 2^(1/4) ~ 19% per step) of the exact
/// sample percentile.
///
/// Layout: bucket 0 covers (-inf, 1us]; bucket i covers
/// (2^((i-1)/4), 2^(i/4)] microseconds; the last bucket is the +inf
/// overflow. The finite range tops out around 2^31.5 us (~50 minutes),
/// far beyond any job latency this runtime produces. Sum, min and max
/// are tracked exactly. Not thread-safe: callers (FleetMetrics) already
/// serialize recording.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 128;
  /// Upper bound of bucket 0 in microseconds.
  static constexpr double kBaseUs = 1.0;
  /// Buckets per doubling of the value range.
  static constexpr int kBucketsPerDoubling = 4;

  /// Records one sample. No allocation, O(1).
  void record(double value_us);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  /// Exact extrema of the recorded samples (0 when empty).
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Interpolated percentile (q in [0, 1]); 0 on an empty histogram.
  /// Within one bucket width of the exact sample percentile, clamped to
  /// the exact [min, max].
  double percentile(double q) const;

  /// Inclusive upper bound of a bucket; +inf for the last one.
  static double upper_bound(std::size_t bucket);
  /// Exclusive lower bound of a bucket (0 for bucket 0).
  static double lower_bound(std::size_t bucket);
  /// The bucket a value lands in.
  static std::size_t bucket_index(double value_us);

  const std::array<std::int64_t, kBuckets>& buckets() const { return buckets_; }

  /// Folds another histogram into this one (extrema and sum included).
  void merge(const LogHistogram& other);

 private:
  std::array<std::int64_t, kBuckets> buckets_{};
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Appends one histogram in the Prometheus text exposition format:
/// cumulative `_bucket{le="..."}` lines (finite bounds with any
/// observations below them, then `+Inf`), `_sum` and `_count`. `name`
/// must already carry the unit suffix convention (e.g.
/// "saclo_job_latency_us"). `labels` is an optional pre-rendered label
/// list (e.g. `class="high"`) joined into every sample line — how one
/// metric family exposes per-class series. The HELP/TYPE header comes
/// with every call: a family of several labelled series writes it once
/// itself and appends each series with append_prometheus_histogram_samples.
void append_prometheus_histogram(std::string& out, const std::string& name,
                                 const std::string& help, const LogHistogram& hist,
                                 const std::string& labels = std::string());

/// The sample lines of append_prometheus_histogram, without the header.
void append_prometheus_histogram_samples(std::string& out, const std::string& name,
                                         const LogHistogram& hist,
                                         const std::string& labels = std::string());

}  // namespace saclo::obs
