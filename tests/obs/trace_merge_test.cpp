#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/mini_json.hpp"

namespace saclo::obs {
namespace {

using saclo::testsupport::Json;
using saclo::testsupport::parse_json;

/// Appends an interval of the operation `name` to `dev`.
void add_interval(DeviceTrace& dev, const std::string& name, gpu::OpKind kind, int stream,
                  double start, double end, std::uint64_t job = 0, std::uint32_t attempt = 0) {
  gpu::Profiler::Interval iv;
  iv.kind = kind;
  iv.stream = stream;
  iv.start_us = start;
  iv.end_us = end;
  iv.trace_id = job;
  iv.attempt = attempt;
  dev.add(name, iv);
}

Event runtime_event(EventType type, std::uint64_t job, int device, int attempt,
                    std::int64_t arg, double t_sim) {
  Event e;
  e.type = type;
  e.job = job;
  e.device = device;
  e.attempt = attempt;
  e.arg = arg;
  e.t_sim_us = t_sim;
  return e;
}

/// The staged failover: job 9 ran on device 0 (attempt 0), died, and
/// completed on device 1 (attempt 1). An untraced warmup interval sits
/// on device 0 to prove untraced spans carry no job args.
std::vector<DeviceTrace> staged_fleet() {
  DeviceTrace dev0;
  dev0.device = 0;
  add_interval(dev0, "warmup", gpu::OpKind::Kernel, 0, 0.0, 5.0);
  add_interval(dev0, "memcpyHtoDasync", gpu::OpKind::MemcpyHtoD, 1, 10.0, 20.0, 9, 0);
  add_interval(dev0, "hfilter", gpu::OpKind::Kernel, 2, 20.0, 80.0, 9, 0);
  DeviceTrace dev1;
  dev1.device = 1;
  add_interval(dev1, "memcpyHtoDasync", gpu::OpKind::MemcpyHtoD, 1, 300.0, 310.0, 9, 1);
  add_interval(dev1, "hfilter", gpu::OpKind::Kernel, 2, 310.0, 400.0, 9, 1);
  return {dev0, dev1};
}

std::vector<Event> staged_events() {
  return {
      runtime_event(EventType::DeviceFault, 9, 0, 0, /*arg=*/2, /*t_sim=*/80.0),
      runtime_event(EventType::Failover, 9, 0, 1, /*arg(to)=*/1, /*t_sim=*/80.0),
  };
}

const Json& find_event(const Json& events, const std::string& ph, const std::string& name) {
  for (const Json& e : events.array) {
    if (e.at("ph").string == ph && e.at("name").string == name) return e;
  }
  throw std::runtime_error("no event with ph=" + ph + " name=" + name);
}

TEST(MergedTraceTest, ProducesValidJsonWithDeviceAndStreamTopology) {
  const Json root = parse_json(merged_chrome_trace(staged_fleet(), staged_events()));
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("displayTimeUnit").string, "ms");
  const Json& events = root.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  // Both devices announce themselves as processes...
  std::vector<std::string> process_names;
  for (const Json& e : events.array) {
    if (e.at("ph").string == "M" && e.at("name").string == "process_name") {
      process_names.push_back(e.at("args").at("name").string);
    }
  }
  EXPECT_EQ(process_names, (std::vector<std::string>{"gpu0", "gpu1"}));

  // ...and every interval became a complete event on pid=device,
  // tid=stream.
  int complete = 0;
  for (const Json& e : events.array) {
    if (e.at("ph").string != "X") continue;
    ++complete;
    EXPECT_TRUE(e.at("pid").number == 0.0 || e.at("pid").number == 1.0);
  }
  EXPECT_EQ(complete, 5);
}

TEST(MergedTraceTest, TracedSpansCarryJobArgsAndUntracedDoNot) {
  const Json root = parse_json(merged_chrome_trace(staged_fleet(), staged_events()));
  const Json& events = root.at("traceEvents");
  const Json& warmup = find_event(events, "X", "warmup");
  EXPECT_FALSE(warmup.has("args"));
  for (const Json& e : events.array) {
    if (e.at("ph").string != "X" || e.at("name").string == "warmup") continue;
    ASSERT_TRUE(e.has("args")) << e.at("name").string;
    EXPECT_DOUBLE_EQ(e.at("args").at("job").number, 9.0);
  }
}

TEST(MergedTraceTest, FlowPairLinksFailoverHopAcrossDevices) {
  const Json root = parse_json(merged_chrome_trace(staged_fleet(), staged_events()));
  const Json& events = root.at("traceEvents");

  const Json& start = find_event(events, "s", "failover");
  const Json& finish = find_event(events, "f", "failover");
  // Same flow id on both halves: job * 256 + attempt.
  EXPECT_DOUBLE_EQ(start.at("id").number, 9.0 * 256 + 1);
  EXPECT_DOUBLE_EQ(finish.at("id").number, 9.0 * 256 + 1);
  // The arrow leaves the last attempt-0 span on device 0 and lands on
  // the first attempt-1 span on device 1.
  EXPECT_DOUBLE_EQ(start.at("pid").number, 0.0);
  EXPECT_DOUBLE_EQ(start.at("ts").number, 80.0);
  EXPECT_DOUBLE_EQ(finish.at("pid").number, 1.0);
  EXPECT_DOUBLE_EQ(finish.at("ts").number, 300.0);
}

TEST(MergedTraceTest, RuntimeInstantEventsLandOnTheRuntimeTrack) {
  const Json root = parse_json(merged_chrome_trace(staged_fleet(), staged_events()));
  const Json& events = root.at("traceEvents");

  const Json& fault = find_event(events, "i", "device_fault");
  EXPECT_DOUBLE_EQ(fault.at("pid").number, 0.0);
  EXPECT_DOUBLE_EQ(fault.at("tid").number, kRuntimeEventsTid);
  EXPECT_DOUBLE_EQ(fault.at("ts").number, 80.0);
  EXPECT_DOUBLE_EQ(fault.at("args").at("job").number, 9.0);

  // The runtime track is named, but only on devices that host instants.
  bool named_runtime_tid = false;
  for (const Json& e : events.array) {
    if (e.at("ph").string == "M" && e.at("name").string == "thread_name" &&
        e.at("tid").number == kRuntimeEventsTid) {
      EXPECT_EQ(e.at("args").at("name").string, "runtime");
      EXPECT_DOUBLE_EQ(e.at("pid").number, 0.0);  // only device 0 has instants
      named_runtime_tid = true;
    }
  }
  EXPECT_TRUE(named_runtime_tid);
}

TEST(MergedTraceTest, BackendTagAnnotatesProcessNamesAndTracedSpans) {
  // A fleet that reports its execution backend gets it into the merged
  // trace twice: the process name reads "gpuN (backend)" and every
  // traced span's args carry it. Untagged traces (the goldens above)
  // keep the bare "gpuN" form.
  std::vector<DeviceTrace> fleet = staged_fleet();
  for (DeviceTrace& dev : fleet) dev.backend = "host";
  const Json root = parse_json(merged_chrome_trace(fleet, staged_events()));
  const Json& events = root.at("traceEvents");

  std::vector<std::string> process_names;
  for (const Json& e : events.array) {
    if (e.at("ph").string == "M" && e.at("name").string == "process_name") {
      process_names.push_back(e.at("args").at("name").string);
    }
  }
  EXPECT_EQ(process_names, (std::vector<std::string>{"gpu0 (host)", "gpu1 (host)"}));

  for (const Json& e : events.array) {
    if (e.at("ph").string != "X" || e.at("name").string == "warmup") continue;
    ASSERT_TRUE(e.has("args")) << e.at("name").string;
    EXPECT_EQ(e.at("args").at("backend").string, "host") << e.at("name").string;
  }
}

TEST(MergedTraceTest, EmptyFleetStillRendersValidJson) {
  const Json root = parse_json(merged_chrome_trace({}, {}));
  ASSERT_TRUE(root.is_object());
  EXPECT_TRUE(root.at("traceEvents").is_array());
  EXPECT_TRUE(root.at("traceEvents").array.empty());
}

TEST(MergedTraceTest, ControlBytesInSpanNamesParseStrictly) {
  const std::string hostile = "ev\til\r\x01";
  DeviceTrace dev;
  add_interval(dev, hostile, gpu::OpKind::Kernel, 0, 0.0, 1.0, 3, 0);
  const Json root = parse_json(merged_chrome_trace({dev}, {}));
  EXPECT_EQ(find_event(root.at("traceEvents"), "X", hostile).at("name").string, hostile);
}

}  // namespace
}  // namespace saclo::obs
