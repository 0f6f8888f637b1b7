#include "obs/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/fmt.hpp"

namespace saclo::obs {

double LogHistogram::upper_bound(std::size_t bucket) {
  if (bucket >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return kBaseUs * std::exp2(static_cast<double>(bucket) / kBucketsPerDoubling);
}

double LogHistogram::lower_bound(std::size_t bucket) {
  return bucket == 0 ? 0.0 : upper_bound(bucket - 1);
}

std::size_t LogHistogram::bucket_index(double value_us) {
  if (!(value_us > kBaseUs)) return 0;  // also catches NaN and negatives
  const double raw = std::ceil(std::log2(value_us / kBaseUs) * kBucketsPerDoubling);
  std::size_t idx = raw < 1.0 ? 1
                    : raw >= static_cast<double>(kBuckets - 1)
                        ? kBuckets - 1
                        : static_cast<std::size_t>(raw);
  // log2/ceil rounding can land one bucket off at exact boundaries;
  // nudge until (lower, upper] really brackets the value.
  while (idx > 1 && value_us <= upper_bound(idx - 1)) --idx;
  while (idx < kBuckets - 1 && value_us > upper_bound(idx)) ++idx;
  return idx;
}

void LogHistogram::record(double value_us) {
  ++buckets_[bucket_index(value_us)];
  if (count_ == 0) {
    min_ = value_us;
    max_ = value_us;
  } else {
    min_ = std::min(min_, value_us);
    max_ = std::max(max_, value_us);
  }
  ++count_;
  sum_ += value_us;
}

double LogHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Fractional rank, matching the exact interpolated percentile the
  // metrics registry used to compute over its raw sample vector.
  const double target = q * static_cast<double>(count_ - 1);
  std::int64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::int64_t c = buckets_[i];
    if (c == 0) continue;
    if (target < static_cast<double>(cum + c)) {
      // Interpolate inside the bucket, assuming its samples spread
      // evenly, and never extrapolate past the exact extrema.
      const double lo = std::max(lower_bound(i), min_);
      const double hi = std::min(upper_bound(i), max_);
      const double frac = (target - static_cast<double>(cum) + 0.5) / static_cast<double>(c);
      return std::clamp(lo + (hi - lo) * std::clamp(frac, 0.0, 1.0), min_, max_);
    }
    cum += c;
  }
  return max_;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void append_prometheus_histogram(std::string& out, const std::string& name,
                                 const std::string& help, const LogHistogram& hist,
                                 const std::string& labels) {
  out += cat("# HELP ", name, " ", help, "\n");
  out += cat("# TYPE ", name, " histogram\n");
  append_prometheus_histogram_samples(out, name, hist, labels);
}

void append_prometheus_histogram_samples(std::string& out, const std::string& name,
                                         const LogHistogram& hist, const std::string& labels) {
  const std::string prefix = labels.empty() ? std::string() : labels + ",";
  // Emit finite bounds up to the last non-empty bucket (a subset of
  // bounds is legal exposition and keeps empty histograms short), then
  // the mandatory +Inf bucket.
  std::size_t last = 0;
  for (std::size_t i = 0; i + 1 < LogHistogram::kBuckets; ++i) {
    if (hist.buckets()[i] != 0) last = i;
  }
  // Each le is the exact bound: a rounded one could sit below it, and a
  // sample at the top of the bucket would then exceed its own le.
  std::int64_t cum = 0;
  for (std::size_t i = 0; i <= last; ++i) {
    cum += hist.buckets()[i];
    out += cat(name, "_bucket{", prefix, "le=\"", round_trip(LogHistogram::upper_bound(i)),
               "\"} ", cum, "\n");
  }
  out += cat(name, "_bucket{", prefix, "le=\"+Inf\"} ", hist.count(), "\n");
  if (labels.empty()) {
    out += cat(name, "_sum ", fixed(hist.sum(), 3), "\n");
    out += cat(name, "_count ", hist.count(), "\n");
  } else {
    out += cat(name, "_sum{", labels, "} ", fixed(hist.sum(), 3), "\n");
    out += cat(name, "_count{", labels, "} ", hist.count(), "\n");
  }
}

}  // namespace saclo::obs
