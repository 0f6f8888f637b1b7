// The critical-path analyzer and its offline inputs: interval-union
// busy time, route classification, attribution numbers, queue wait and
// stalls from the event log, the rendered report, and the trace/event
// loaders with their typed errors. Hand-built fixtures keep every
// number checkable by eye.

#include "obs/critpath.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gpu/profiler.hpp"
#include "obs/export.hpp"

namespace saclo::obs {
namespace {

using gpu::OpKind;

/// An interval of the operation `name`.
struct Span {
  std::string name;
  gpu::Profiler::Interval iv;
};

Span span(const std::string& name, OpKind kind, double start, double dur,
          gpu::StreamId stream = 1) {
  gpu::Profiler::Interval iv;
  iv.kind = kind;
  iv.stream = stream;
  iv.start_us = start;
  iv.end_us = start + dur;
  return {name, iv};
}

DeviceTrace device(int index, const std::vector<Span>& spans, std::string backend = {}) {
  DeviceTrace dev;
  dev.device = index;
  dev.backend = std::move(backend);
  for (const Span& s : spans) dev.add(s.name, s.iv);
  return dev;
}

/// Busy time of one device holding kernel spans over [start, end).
double busy_of(const std::vector<std::pair<double, double>>& spans) {
  DeviceTrace dev;
  for (const auto& [start, end] : spans) {
    const Span s = span("k", OpKind::Kernel, start, end - start);
    dev.add(s.name, s.iv);
  }
  return analyze_critical_path({dev}, {}).devices.at(0).busy_us;
}

Event event(EventType type, std::uint64_t job, int device, double t_real_us = 0) {
  Event e;
  e.type = type;
  e.job = job;
  e.device = device;
  e.t_real_us = t_real_us;
  return e;
}

TEST(CritPathUnionTest, DisjointSpansAdd) { EXPECT_DOUBLE_EQ(busy_of({{0, 10}, {20, 30}}), 20); }

TEST(CritPathUnionTest, OverlapCountsOnce) { EXPECT_DOUBLE_EQ(busy_of({{0, 10}, {5, 15}}), 15); }

TEST(CritPathUnionTest, NestedSpanAddsNothing) {
  EXPECT_DOUBLE_EQ(busy_of({{0, 100}, {10, 20}}), 100);
}

TEST(CritPathUnionTest, DeviceWithoutSpansIsIdle) { EXPECT_DOUBLE_EQ(busy_of({}), 0.0); }

TEST(CritPathRouteTest, GaspardKernelsAreKrnPrefixed) {
  EXPECT_STREQ(route_of_kernel("KRN_hfilter"), "gaspard");
  EXPECT_STREQ(route_of_kernel("hfilter_generic_w0_g0"), "sac");
}

TEST(CritPathAnalyzeTest, AttributionNumbers) {
  const DeviceTrace dev0 = device(0, {span("k0", OpKind::Kernel, 0, 100),
                                      span("memcpyHtoDasync", OpKind::MemcpyHtoD, 100, 50, 0),
                                      // Overlapping stream on the same device: busy union, not sum.
                                      span("k0", OpKind::Kernel, 50, 100, 2)});
  const DeviceTrace dev1 = device(1, {span("KRN_stage", OpKind::Kernel, 0, 200)});
  const CriticalPath path = analyze_critical_path({dev0, dev1}, {});
  EXPECT_DOUBLE_EQ(path.makespan_us, 200);
  const DeviceAttribution& d0 = path.devices.at(0);
  EXPECT_DOUBLE_EQ(d0.busy_us, 150);    // [0,150) union
  EXPECT_DOUBLE_EQ(d0.kernel_us, 200);  // overlap double-counted in the sum
  EXPECT_DOUBLE_EQ(d0.h2d_us, 50);
  EXPECT_DOUBLE_EQ(d0.span_us, 150);
  ASSERT_EQ(path.routes.size(), 2u);
  for (const RouteAttribution& r : path.routes) EXPECT_DOUBLE_EQ(r.kernel_us, 200) << r.route;
  ASSERT_FALSE(path.stages.empty());
  EXPECT_EQ(path.stages[0].name, "KRN_stage");  // 200 us; k0 also 200 but sorts after
  EXPECT_EQ(path.stages[1].name, "k0");
  EXPECT_EQ(path.stages[1].calls, 2);
  EXPECT_EQ(path.stages[1].category, "kernel");
}

TEST(CritPathAnalyzeTest, QueueWaitAndStallsFromEvents) {
  const DeviceTrace dev = device(0, {span("k", OpKind::Kernel, 0, 10)});
  const std::vector<Event> events = {
      event(EventType::JobAdmitted, 1, -1, 100.0),
      event(EventType::JobDispatched, 1, 0, 400.0),
      // Redispatch after failover: only the FIRST dispatch counts.
      event(EventType::JobDispatched, 1, 0, 900.0),
      event(EventType::JobPreempted, 1, 0),
      event(EventType::DeviceFault, 1, 0),
      event(EventType::DrainStarted, 0, 0),
      // Dispatched with no admission record: ignored, not a crash.
      event(EventType::JobDispatched, 7, 0, 5.0),
  };
  const CriticalPath path = analyze_critical_path({dev}, events);
  EXPECT_EQ(path.jobs_waited, 1);
  EXPECT_DOUBLE_EQ(path.queue_wait_total_us, 300.0);
  EXPECT_DOUBLE_EQ(path.queue_wait_max_us, 300.0);
  EXPECT_EQ(path.preemptions, 1);
  EXPECT_EQ(path.drains, 1);
  EXPECT_EQ(path.devices.at(0).preemptions, 1);
  EXPECT_EQ(path.devices.at(0).faults, 1);
  EXPECT_EQ(path.devices.at(0).drains, 1);
}

TEST(CritPathAnalyzeTest, ReportRenders) {
  const DeviceTrace dev = device(0, {span("KRN_a", OpKind::Kernel, 0, 10)});
  const std::string text = critical_path_report(analyze_critical_path({dev}, {}));
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("gpu0"), std::string::npos);
  EXPECT_NE(text.find("gaspard"), std::string::npos);
}

// -- the offline loaders ------------------------------------------------------

class TraceLoadTest : public ::testing::Test {
 protected:
  std::string write(const std::string& name, const std::string& text) {
    const std::string path = ::testing::TempDir() + "critpath_" + name;
    std::ofstream(path, std::ios::binary) << text;
    written_.push_back(path);
    return path;
  }
  void TearDown() override {
    for (const std::string& path : written_) std::remove(path.c_str());
  }

 private:
  std::vector<std::string> written_;
};

TEST_F(TraceLoadTest, LoadsXEventsOnly) {
  const std::string path = write(
      "t.json",
      "{\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{}},"
      "{\"name\":\"k\",\"cat\":\"kernel\",\"ph\":\"X\",\"pid\":0,\"tid\":1,"
      "\"ts\":1.5,\"dur\":2.5,\"args\":{}}]}");
  const std::vector<DeviceTrace> devices = load_chrome_trace(path);
  ASSERT_EQ(devices.size(), 1u);
  ASSERT_EQ(devices[0].intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(devices[0].intervals[0].start_us, 1.5);
  EXPECT_DOUBLE_EQ(devices[0].intervals[0].end_us, 4.0);
  EXPECT_EQ(devices[0].intervals[0].kind, OpKind::Kernel);
}

TEST_F(TraceLoadTest, MissingTraceIsTypedError) {
  EXPECT_THROW(load_chrome_trace(::testing::TempDir() + "critpath_absent.json"),
               TraceLoadError);
  EXPECT_THROW(load_event_log(::testing::TempDir() + "critpath_absent.jsonl"), TraceLoadError);
}

TEST_F(TraceLoadTest, NotATraceIsTypedError) {
  EXPECT_THROW(load_chrome_trace(write("foo.json", "{\"foo\":1}")), TraceLoadError);
  EXPECT_THROW(load_chrome_trace(write("broken.json", "{\"traceEvents\":[")), TraceLoadError);
}

TEST_F(TraceLoadTest, TraceWithNoSpansIsTypedError) {
  EXPECT_THROW(load_chrome_trace(write("empty.json", "{\"traceEvents\":[]}")), TraceLoadError);
}

TEST_F(TraceLoadTest, MalformedEventLineIsTypedError) {
  const std::string path =
      write("e.jsonl",
            "{\"event\":\"job_admitted\",\"backend\":\"sim\",\"t_real_us\":1.0,"
            "\"t_sim_us\":0.000,\"job\":1,\"device\":-1,\"attempt\":0,\"arg\":1}\n{broken\n");
  try {
    load_event_log(path);
    FAIL() << "a malformed line was accepted";
  } catch (const TraceLoadError& e) {
    EXPECT_NE(std::string(e.what()).find(path + ": line 2:"), std::string::npos) << e.what();
  }
}

TEST_F(TraceLoadTest, BlankLinesAndTheSummaryInEventLogAreSkipped) {
  EventLog log(8);
  Event admitted = event(EventType::JobAdmitted, 1, -1, 12.5);
  admitted.arg = 4;
  log.emit(admitted);
  const std::vector<Event> events = load_event_log(write("e.jsonl", log.jsonl() + "\n  \n"));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::JobAdmitted);
  EXPECT_EQ(events[0].job, 1u);
  EXPECT_EQ(events[0].arg, 4);
  EXPECT_DOUBLE_EQ(events[0].t_real_us, 12.5);
}

TEST(TraceRoundTripTest, ParsedMergedTraceIsTheRenderedOne) {
  DeviceTrace dev0 = device(0,
                            {span("weird \"k\"\t", OpKind::Kernel, 0.25, 10.125),
                             span("memcpyDtoHasync", OpKind::MemcpyDtoH, 11, 2, 3)},
                            "sim");
  dev0.intervals[0].trace_id = 7;  // job args, instant events: skipped, not errors
  dev0.intervals[0].batch = 7;
  const DeviceTrace dev1 = device(1, {}, "sim");  // no spans: still a device row
  std::vector<Event> events = {event(EventType::DeviceFault, 7, 0, 3.0)};
  const std::vector<DeviceTrace> back =
      parse_chrome_trace(merged_chrome_trace({dev0, dev1}, events));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].device, 1);
  EXPECT_TRUE(back[1].intervals.empty());
  ASSERT_EQ(back[0].intervals.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& a = dev0.intervals[i];
    const auto& b = back[0].intervals[i];
    EXPECT_EQ(back[0].name_of(b), dev0.name_of(a));
    EXPECT_EQ(b.kind, a.kind);
    EXPECT_EQ(b.stream, a.stream);
    EXPECT_NEAR(b.start_us, a.start_us, 1e-3);
    EXPECT_NEAR(b.end_us, a.end_us, 2e-3);
  }
}

}  // namespace
}  // namespace saclo::obs
