#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

namespace saclo::obs {
namespace {

// Exact interpolated percentile of a sample — the reference the
// histogram's approximation is held against (same fractional-rank
// convention as serve::percentile).
double exact_percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double bucket_width_at(double value) {
  const std::size_t b = LogHistogram::bucket_index(value);
  return LogHistogram::upper_bound(b) - LogHistogram::lower_bound(b);
}

TEST(LogHistogramTest, BucketBoundsPartitionTheAxis) {
  // Bucket upper bounds are strictly increasing and every value maps to
  // the bucket whose (lower, upper] range contains it.
  for (std::size_t b = 1; b + 1 < LogHistogram::kBuckets; ++b) {
    EXPECT_GT(LogHistogram::upper_bound(b), LogHistogram::lower_bound(b));
    EXPECT_DOUBLE_EQ(LogHistogram::lower_bound(b + 1), LogHistogram::upper_bound(b));
  }
  for (double v : {0.0, 0.5, 1.0, 1.5, 7.0, 100.0, 12345.6, 1e9}) {
    const std::size_t b = LogHistogram::bucket_index(v);
    EXPECT_LE(v, LogHistogram::upper_bound(b)) << "value " << v;
    if (b > 0) {
      EXPECT_GT(v, LogHistogram::lower_bound(b)) << "value " << v;
    }
  }
  // An upper bound lands in its own bucket; just past it, in the next.
  const double ub = LogHistogram::upper_bound(17);
  EXPECT_EQ(LogHistogram::bucket_index(ub), 17u);
  EXPECT_EQ(LogHistogram::bucket_index(ub * 1.0001), 18u);
}

TEST(LogHistogramTest, TracksExactScalarStats) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  for (double v : {300.0, 100.0, 200.0}) h.record(v);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 600.0);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
  EXPECT_DOUBLE_EQ(h.min(), 100.0);
  EXPECT_DOUBLE_EQ(h.max(), 300.0);
}

TEST(LogHistogramTest, SingleSampleClampsPercentilesExactly) {
  LogHistogram h;
  h.record(470.0);
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(q), 470.0) << "q=" << q;
  }
}

TEST(LogHistogramTest, PercentilesStayWithinOneBucketWidthOfExact) {
  // The bound the metrics registry relies on: across seeded heavy-tailed
  // samples, every reported percentile sits within one bucket width of
  // the exact sample percentile.
  std::mt19937_64 rng(19937);
  std::lognormal_distribution<double> dist(/*m=*/8.0, /*s=*/1.2);  // ~3ms median
  LogHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    const double v = dist(rng);
    samples.push_back(v);
    h.record(v);
  }
  for (double q : {0.50, 0.95, 0.99}) {
    const double exact = exact_percentile(samples, q);
    EXPECT_NEAR(h.percentile(q), exact, bucket_width_at(exact)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.min(), *std::min_element(samples.begin(), samples.end()));
  EXPECT_DOUBLE_EQ(h.max(), *std::max_element(samples.begin(), samples.end()));
}

TEST(LogHistogramTest, PercentileIsClampedToObservedRange) {
  LogHistogram h;
  h.record(1000.0);
  h.record(1001.0);
  EXPECT_GE(h.percentile(0.0), 1000.0);
  EXPECT_LE(h.percentile(1.0), 1001.0);
}

TEST(LogHistogramTest, MergeFoldsCountsAndExtrema) {
  LogHistogram a;
  LogHistogram b;
  a.record(10.0);
  a.record(20.0);
  b.record(5.0);
  b.record(40.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4);
  EXPECT_DOUBLE_EQ(a.sum(), 75.0);
  EXPECT_DOUBLE_EQ(a.min(), 5.0);
  EXPECT_DOUBLE_EQ(a.max(), 40.0);
}

TEST(LogHistogramTest, PrometheusExpositionIsCumulativeAndComplete) {
  LogHistogram h;
  for (double v : {3.0, 50.0, 50.0, 7000.0}) h.record(v);
  std::string out;
  append_prometheus_histogram(out, "test_us", "A test histogram.", h);

  EXPECT_NE(out.find("# HELP test_us A test histogram.\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE test_us histogram\n"), std::string::npos);
  EXPECT_NE(out.find("test_us_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(out.find("test_us_sum 7103"), std::string::npos);
  EXPECT_NE(out.find("test_us_count 4\n"), std::string::npos);

  // Cumulative counts never decrease down the bucket lines.
  std::int64_t prev = 0;
  std::size_t pos = 0;
  int bucket_lines = 0;
  while ((pos = out.find("test_us_bucket{", pos)) != std::string::npos) {
    const std::size_t count_at = out.find("} ", pos) + 2;
    const std::int64_t cum = std::stoll(out.substr(count_at));
    EXPECT_GE(cum, prev);
    prev = cum;
    ++bucket_lines;
    ++pos;
  }
  EXPECT_GE(bucket_lines, 2);
  EXPECT_EQ(prev, 4);  // the +Inf line covers every observation
}

TEST(LogHistogramTest, PrometheusBucketBoundsNeverRoundBelowTheTrueBound) {
  // A sample in the last finite bucket makes the exposition list every
  // bound. A published le below upper_bound(i) would let a sample at
  // the top of bucket i exceed the le it is counted under.
  LogHistogram h;
  h.record(LogHistogram::upper_bound(LogHistogram::kBuckets - 2));
  std::string out;
  append_prometheus_histogram(out, "test_us", "A test histogram.", h);
  std::size_t i = 0;
  std::size_t pos = 0;
  const std::string key = "test_us_bucket{le=\"";
  while ((pos = out.find(key, pos)) != std::string::npos) {
    pos += key.size();
    const std::string le = out.substr(pos, out.find('"', pos) - pos);
    if (le == "+Inf") break;
    EXPECT_GE(std::stod(le), LogHistogram::upper_bound(i)) << "bucket " << i << " le=" << le;
    ++i;
  }
  EXPECT_EQ(i, LogHistogram::kBuckets - 1);
}

TEST(LogHistogramTest, PrometheusExpositionCarriesExtraLabels) {
  // The per-class latency series rides on this: caller-provided labels
  // join the le label on every bucket line and stand alone on sum and
  // count — and an empty label string stays byte-identical to the
  // unlabeled form (no stray commas or empty braces).
  LogHistogram h;
  h.record(10.0);
  std::string labeled;
  append_prometheus_histogram(labeled, "test_us", "A test histogram.", h, "class=\"high\"");
  EXPECT_NE(labeled.find("test_us_bucket{class=\"high\",le=\"+Inf\"} 1\n"), std::string::npos);
  EXPECT_NE(labeled.find("test_us_sum{class=\"high\"} 10"), std::string::npos);
  EXPECT_NE(labeled.find("test_us_count{class=\"high\"} 1\n"), std::string::npos);

  std::string plain;
  append_prometheus_histogram(plain, "test_us", "A test histogram.", h, "");
  EXPECT_NE(plain.find("test_us_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
  EXPECT_NE(plain.find("test_us_count 1\n"), std::string::npos);
  EXPECT_EQ(plain.find("{}"), std::string::npos);
}

}  // namespace
}  // namespace saclo::obs
