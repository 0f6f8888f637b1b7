#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "gpu/cost_model.hpp"
#include "gpu/device.hpp"
#include "gpu/profiler.hpp"
#include "gpu/sim_gpu.hpp"
#include "obs/export.hpp"
#include "support/mini_json.hpp"

namespace saclo::gpu {
namespace {

using saclo::testsupport::Json;
using saclo::testsupport::parse_json;

/// One device's Chrome trace: the merged renderer over that device
/// alone, which is what the serve runtime's device dumps are.
std::string chrome_trace(const Profiler& p) {
  return obs::merged_chrome_trace({obs::DeviceTrace::of(0, p)}, {});
}

// The Chrome trace export is a stable machine-readable interface
// (chrome://tracing, Perfetto, the serve runtime's device dumps) —
// lock its exact shape down with a golden string.
TEST(ChromeTraceExportTest, GoldenTraceForAHandAssembledSchedule) {
  Profiler p;
  p.record_interval("hfilter_k0", OpKind::Kernel, /*stream=*/1, 0.0, 10.0);
  p.record_interval("memcpyHtoDasync", OpKind::MemcpyHtoD, /*stream=*/0, 0.0, 5.0);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"gpu0\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"stream 0\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,"
      "\"args\":{\"name\":\"stream 1\"}},"
      "{\"name\":\"hfilter_k0\",\"cat\":\"kernel\",\"ph\":\"X\",\"pid\":0,\"tid\":1,"
      "\"ts\":0.000,\"dur\":10.000},"
      "{\"name\":\"memcpyHtoDasync\",\"cat\":\"memcpy_h2d\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
      "\"ts\":0.000,\"dur\":5.000}"
      "]}";
  EXPECT_EQ(chrome_trace(p), expected);
}

TEST(ChromeTraceExportTest, EmptyProfilerStillEmitsValidJson) {
  Profiler p;
  const Json root = parse_json(chrome_trace(p));
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("displayTimeUnit").string, "ms");
  // Only the device's process_name record: no streams, no spans.
  ASSERT_EQ(root.at("traceEvents").array.size(), 1u);
  EXPECT_EQ(root.at("traceEvents").array[0].at("name").string, "process_name");
}

TEST(ChromeTraceExportTest, EscapesQuotesAndBackslashesInNames) {
  Profiler p;
  p.record_interval("weird \"kernel\" \\ name", OpKind::Kernel, 0, 0.0, 1.0);
  const Json root = parse_json(chrome_trace(p));
  bool found = false;
  for (const Json& ev : root.at("traceEvents").array) {
    if (ev.at("ph").string == "X") {
      EXPECT_EQ(ev.at("name").string, "weird \"kernel\" \\ name");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// Collects the "X" (complete) events of a parsed trace grouped by tid,
// in array order — which is the profiler's issue order.
std::map<int, std::vector<const Json*>> events_by_stream(const Json& root) {
  std::map<int, std::vector<const Json*>> by_tid;
  for (const Json& ev : root.at("traceEvents").array) {
    if (ev.at("ph").string == "X") {
      by_tid[static_cast<int>(ev.at("tid").number)].push_back(&ev);
    }
  }
  return by_tid;
}

TEST(ChromeTraceExportTest, RealScheduleYieldsMonotoneNonOverlappingStreams) {
  // Drive a real multi-stream schedule through the simulator: three
  // streams doing upload / compute / download per "frame", the PR 1
  // overlap pattern.
  VirtualGpu gpu(gtx480());
  const StreamId h2d = gpu.create_stream();
  const StreamId compute = gpu.create_stream();
  const StreamId d2h = gpu.create_stream();

  const BufferHandle buf = gpu.alloc(4096);
  KernelLaunch kernel;
  kernel.name = "trace_test_kernel";
  kernel.threads = 1024;
  kernel.cost.flops_per_thread = 8.0;
  kernel.cost.global_loads_per_thread = 1.0;
  kernel.cost.global_stores_per_thread = 1.0;
  kernel.body = [](std::int64_t, std::int64_t) {};
  const BufferHandle touched[] = {buf};
  kernel.reads = touched;
  kernel.writes = touched;

  for (int frame = 0; frame < 3; ++frame) {
    gpu.account_transfer(4096, Dir::HostToDevice, "memcpyHtoDasync", h2d, buf);
    gpu.launch(kernel, /*execute=*/false, compute);
    gpu.account_transfer(4096, Dir::DeviceToHost, "memcpyDtoHasync", d2h, buf);
  }
  gpu.synchronize();

  const Json root = parse_json(chrome_trace(gpu.profiler()));
  const auto by_tid = events_by_stream(root);
  ASSERT_EQ(by_tid.size(), 3u);  // the three created streams

  for (const auto& [tid, events] : by_tid) {
    ASSERT_EQ(events.size(), 3u) << "stream " << tid;
    double tail = 0.0;
    for (const Json* ev : events) {
      const double ts = ev->at("ts").number;
      const double dur = ev->at("dur").number;
      EXPECT_GE(dur, 0.0);
      // In-order streams: each op starts at or after the previous
      // op's end — intervals on one stream never overlap.
      EXPECT_GE(ts, tail) << "stream " << tid;
      tail = ts + dur;
    }
  }
}

TEST(ChromeTraceExportTest, EventNamesAndCategoriesAreTheStableOnes) {
  VirtualGpu gpu(gtx480());
  const BufferHandle buf = gpu.alloc(1024);
  gpu.account_transfer(1024, Dir::HostToDevice, "memcpyHtoDasync", kDefaultStream, buf);
  KernelLaunch kernel;
  kernel.name = "hfilter_k0";
  kernel.threads = 32;
  kernel.cost.flops_per_thread = 1.0;
  kernel.body = [](std::int64_t, std::int64_t) {};
  gpu.launch(kernel, /*execute=*/false);
  gpu.account_transfer(1024, Dir::DeviceToHost, "memcpyDtoHasync", kDefaultStream, buf);
  gpu.run_host("host_tiler", 2.0, kDefaultStream);

  const Json root = parse_json(chrome_trace(gpu.profiler()));
  std::map<std::string, std::string> cat_of;  // name -> category
  for (const Json& ev : root.at("traceEvents").array) {
    if (ev.at("ph").string == "X") cat_of[ev.at("name").string] = ev.at("cat").string;
  }
  // The golden vocabulary downstream tooling keys on.
  ASSERT_TRUE(cat_of.count("memcpyHtoDasync"));
  EXPECT_EQ(cat_of["memcpyHtoDasync"], "memcpy_h2d");
  ASSERT_TRUE(cat_of.count("memcpyDtoHasync"));
  EXPECT_EQ(cat_of["memcpyDtoHasync"], "memcpy_d2h");
  ASSERT_TRUE(cat_of.count("hfilter_k0"));
  EXPECT_EQ(cat_of["hfilter_k0"], "kernel");
  ASSERT_TRUE(cat_of.count("host_tiler"));
  EXPECT_EQ(cat_of["host_tiler"], "host");
}

}  // namespace
}  // namespace saclo::gpu
