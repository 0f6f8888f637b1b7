// Seeded mutation robustness of every JSON input the project reads: the
// core reader, the traffic-trace loader and the critical-path analyzer's
// trace / event-log loaders (support/mutation.hpp; the ASan/UBSan CI
// job runs this suite too).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "serve/traffic.hpp"
#include "support/mutation.hpp"

namespace saclo {
namespace {

using testsupport::expect_value_or_typed_error;

std::string traffic_trace() {
  serve::TrafficSpec spec = serve::TrafficSpec::ci_default();
  spec.duration_ms = 200;
  return serve::generate_trace(spec).to_json();
}

/// Appends an interval of the operation `name` to `dev`.
void span(obs::DeviceTrace& dev, const std::string& name, gpu::OpKind kind, int stream,
          double start, double end, std::uint64_t job, std::uint32_t attempt) {
  gpu::Profiler::Interval iv;
  iv.kind = kind;
  iv.stream = stream;
  iv.start_us = start;
  iv.end_us = end;
  iv.trace_id = job;
  iv.attempt = attempt;
  iv.batch = job;
  dev.add(name, iv);
}

obs::Event event(obs::EventType type, std::uint64_t job, int device, int attempt,
                 std::int64_t arg, double t) {
  obs::Event e;
  e.type = type;
  e.job = job;
  e.device = device;
  e.attempt = attempt;
  e.arg = arg;
  e.t_real_us = t;
  e.t_sim_us = t;
  return e;
}

/// A failed-over job across two devices plus an autoscale step.
std::vector<obs::Event> fleet_events() {
  using obs::EventType;
  return {event(EventType::JobAdmitted, 9, -1, 0, 4, 1.5),
          event(EventType::JobDispatched, 9, 0, 0, 0, 2.5),
          event(EventType::DeviceFault, 9, 0, 0, 2, 80.0),
          event(EventType::Failover, 9, 0, 1, 1, 80.0),
          event(EventType::ScaleUp, 0, 1, 0, 2, 90.0),
          event(EventType::JobCompleted, 9, 1, 1, 4, 400.0)};
}

std::string merged_trace() {
  obs::DeviceTrace dev0{0, {}, "sim", {}};
  span(dev0, "memcpyHtoDasync", gpu::OpKind::MemcpyHtoD, 1, 10.0, 20.0, 9, 0);
  span(dev0, "hfilter_nongeneric_w0_g0", gpu::OpKind::Kernel, 2, 20.0, 80.0, 9, 0);
  obs::DeviceTrace dev1{1, {}, "sim", {}};
  span(dev1, "KRN_rhf", gpu::OpKind::Kernel, 2, 310.0, 400.0, 9, 1);
  span(dev1, "host (output tiler)", gpu::OpKind::Host, 3, 400.0, 401.0, 9, 1);
  span(dev1, "memcpyDtoHasync", gpu::OpKind::MemcpyDtoH, 4, 401.0, 420.0, 9, 1);
  return obs::merged_chrome_trace({dev0, dev1}, fleet_events());
}

std::string event_log() {
  obs::EventLog log(16);
  for (const obs::Event& e : fleet_events()) log.emit(e);
  return log.jsonl();
}

TEST(JsonMutationTest, ReaderReturnsAValueOrAJsonError) {
  std::uint64_t seed = 1;
  for (const std::string& valid : {traffic_trace(), merged_trace()}) {
    expect_value_or_typed_error<JsonError>(valid, seed++,
                                           [](const std::string& t) { parse_json(t); });
  }
}

TEST(JsonMutationTest, TrafficTraceLoaderThrowsOnlyTrafficError) {
  expect_value_or_typed_error<serve::TrafficError>(
      traffic_trace(), 11, [](const std::string& t) { serve::TrafficTrace::from_json(t); });
}

TEST(JsonMutationTest, ChromeTraceLoaderThrowsOnlyTraceLoadError) {
  expect_value_or_typed_error<obs::TraceLoadError>(
      merged_trace(), 21, [](const std::string& t) { obs::parse_chrome_trace(t); });
}

TEST(JsonMutationTest, EventLogLoaderThrowsOnlyTraceLoadError) {
  expect_value_or_typed_error<obs::TraceLoadError>(
      event_log(), 31, [](const std::string& t) { obs::parse_event_log(t); });
}

}  // namespace
}  // namespace saclo
