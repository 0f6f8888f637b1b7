#include "gpu/profiler.hpp"

#include <gtest/gtest.h>

#include "obs/export.hpp"

namespace saclo::gpu {
namespace {

TEST(ProfilerTest, AccumulatesCallsAndTime) {
  Profiler p;
  p.record("H. Filter (3 kernels)", OpKind::Kernel, 1, 938.0);
  p.record("H. Filter (3 kernels)", OpKind::Kernel, 1, 938.0);
  p.record("memcpyHtoDasync", OpKind::MemcpyHtoD, 1, 1546.0);
  const auto rows = p.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "H. Filter (3 kernels)");
  EXPECT_EQ(rows[0].calls, 2);
  EXPECT_DOUBLE_EQ(rows[0].total_us, 1876.0);
  EXPECT_DOUBLE_EQ(p.total_us(), 1876.0 + 1546.0);
}

TEST(ProfilerTest, TotalsByKind) {
  Profiler p;
  p.record("k", OpKind::Kernel, 1, 100.0);
  p.record("h2d", OpKind::MemcpyHtoD, 1, 50.0);
  p.record("d2h", OpKind::MemcpyDtoH, 1, 25.0);
  EXPECT_DOUBLE_EQ(p.total_us(OpKind::Kernel), 100.0);
  EXPECT_DOUBLE_EQ(p.total_us(OpKind::MemcpyHtoD), 50.0);
  EXPECT_DOUBLE_EQ(p.total_us(OpKind::MemcpyDtoH), 25.0);
}

TEST(ProfilerTest, RowsKeepFirstRecordedOrder) {
  Profiler p;
  p.record("b", OpKind::Kernel, 1, 1.0);
  p.record("a", OpKind::Kernel, 1, 1.0);
  p.record("b", OpKind::Kernel, 1, 1.0);
  const auto rows = p.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "b");
  EXPECT_EQ(rows[1].name, "a");
}

TEST(ProfilerTest, TableHasPaperLayout) {
  Profiler p;
  p.record("H. Filter (3 kernels)", OpKind::Kernel, 300, 844185.0);
  p.record("memcpyHtoDasync", OpKind::MemcpyHtoD, 900, 1391670.0);
  const std::string table = p.table();
  EXPECT_NE(table.find("Operation"), std::string::npos);
  EXPECT_NE(table.find("#calls"), std::string::npos);
  EXPECT_NE(table.find("GPU time(usec)"), std::string::npos);
  EXPECT_NE(table.find("GPU time (%)"), std::string::npos);
  EXPECT_NE(table.find("844185"), std::string::npos);
  EXPECT_NE(table.find("Total"), std::string::npos);
  // 2.24sec total
  EXPECT_NE(table.find("2.24sec"), std::string::npos);
}

TEST(ProfilerTest, UsForUnknownNameIsZero) {
  Profiler p;
  EXPECT_DOUBLE_EQ(p.us_for("nothing"), 0.0);
}

TEST(ProfilerTest, ClearResets) {
  Profiler p;
  p.record("k", OpKind::Kernel, 1, 10.0);
  p.record_interval("k", OpKind::Kernel, kDefaultStream, 0.0, 10.0);
  p.clear();
  EXPECT_TRUE(p.rows().empty());
  EXPECT_TRUE(p.intervals().empty());
  EXPECT_DOUBLE_EQ(p.total_us(), 0.0);
}

TEST(ProfilerTest, IntervalsFeedAggregateRows) {
  Profiler p;
  p.record_interval("k", OpKind::Kernel, 1, 0.0, 10.0);
  p.record_interval("k", OpKind::Kernel, 1, 10.0, 30.0);
  const auto rows = p.rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].calls, 2);
  EXPECT_DOUBLE_EQ(rows[0].total_us, 30.0);
  EXPECT_DOUBLE_EQ(p.makespan_us(), 30.0);
  EXPECT_DOUBLE_EQ(p.stream_busy_us(1), 30.0);
  EXPECT_DOUBLE_EQ(p.stream_busy_us(2), 0.0);
}

TEST(ProfilerTest, OverlapStatsCountHiddenTransfers) {
  Profiler p;
  // Kernel on stream 1 covers [0, 100); transfers on stream 2:
  // [0, 40) fully hidden, [90, 120) partially hidden (10 of 30).
  p.record_interval("k", OpKind::Kernel, 1, 0.0, 100.0);
  p.record_interval("up", OpKind::MemcpyHtoD, 2, 0.0, 40.0);
  p.record_interval("down", OpKind::MemcpyDtoH, 2, 90.0, 120.0);
  const auto stats = p.overlap_stats();
  EXPECT_DOUBLE_EQ(stats.serialized_us, 170.0);
  EXPECT_DOUBLE_EQ(stats.makespan_us, 120.0);
  EXPECT_DOUBLE_EQ(stats.saved_us(), 50.0);
  EXPECT_DOUBLE_EQ(stats.transfer_us, 70.0);
  EXPECT_DOUBLE_EQ(stats.hidden_transfer_us, 50.0);
  EXPECT_NEAR(stats.hidden_fraction(), 50.0 / 70.0, 1e-12);
}

TEST(ProfilerTest, TimelineReportListsStreams) {
  Profiler p;
  p.record_interval("k", OpKind::Kernel, 1, 0.0, 100.0);
  p.record_interval("up", OpKind::MemcpyHtoD, 2, 0.0, 40.0);
  const std::string report = p.timeline();
  EXPECT_NE(report.find("stream"), std::string::npos);
  EXPECT_NE(report.find("makespan"), std::string::npos);
  EXPECT_NE(report.find("hidden behind kernels"), std::string::npos);
}

TEST(ProfilerTest, ChromeTraceIsWellFormed) {
  Profiler p;
  p.record_interval("kern\"el", OpKind::Kernel, 1, 0.0, 10.0);
  p.record_interval("up", OpKind::MemcpyHtoD, 2, 0.0, 4.0);
  const std::string json = obs::merged_chrome_trace({obs::DeviceTrace::of(0, p)}, {});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("memcpy_h2d"), std::string::npos);
  // Quotes in op names are escaped.
  EXPECT_NE(json.find("kern\\\"el"), std::string::npos);
}

}  // namespace
}  // namespace saclo::gpu
