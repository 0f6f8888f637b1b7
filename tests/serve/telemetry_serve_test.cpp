// The live observability plane end to end: a ServeRuntime with an
// embedded telemetry endpoint must answer every mounted route from
// live snapshots — during the run and after drain — and the /metrics
// scrape of a drained fleet must be counter-identical to what
// --metrics-out writes. Also covers the AlertMonitor wiring: /alerts,
// the alert wire events, and the handler replacement at stop().

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critpath.hpp"
#include "obs/export.hpp"
#include "serve/alerting.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "support/fault_fixtures.hpp"
#include "support/mini_json.hpp"

namespace saclo::serve {
namespace {

using saclo::testsupport::FaultPlanBuilder;
using saclo::testsupport::Json;
using saclo::testsupport::parse_json;

JobSpec small_job() {
  JobSpec spec;
  spec.frames = 2;
  spec.exec_frames = 1;
  return spec;
}

/// One GET against 127.0.0.1:port; returns (status line .. headers,
/// body) split at the blank line.
std::pair<std::string, std::string> http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "connect failed: " << std::strerror(errno);
  const std::string raw = "GET " + path + " HTTP/1.1\r\nHost: test\r\n\r\n";
  EXPECT_EQ(::send(fd, raw.data(), raw.size(), 0), static_cast<ssize_t>(raw.size()));
  std::string response;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t split = response.find("\r\n\r\n");
  if (split == std::string::npos) return {response, ""};
  return {response.substr(0, split), response.substr(split + 4)};
}

/// Drops the saclo_device_seconds_total lines: that gauge accrues real
/// wall-clock inside every snapshot, so it is the one metric two
/// scrapes legitimately disagree on.
std::string without_device_seconds(const std::string& prom) {
  std::istringstream in(prom);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.find("saclo_device_seconds_total") == std::string::npos) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

ServeRuntime::Options telemetry_options() {
  ServeRuntime::Options opts;
  opts.devices = 2;
  opts.telemetry_port = 0;  // ephemeral: tests never fight over a port
  opts.event_log_capacity = 4096;
  return opts;
}

TEST(TelemetryServeTest, NoTelemetryByDefault) {
  ServeRuntime::Options opts;
  opts.devices = 1;
  ServeRuntime runtime(opts);
  EXPECT_EQ(runtime.telemetry(), nullptr);
}

TEST(TelemetryServeTest, ScrapeAfterDrainIsCounterIdenticalToExport) {
  ServeRuntime runtime(telemetry_options());
  ASSERT_NE(runtime.telemetry(), nullptr);
  const int port = runtime.telemetry()->port();
  ASSERT_GT(port, 0);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(runtime.submit(small_job()));
  for (auto& f : futures) f.get();
  runtime.drain();

  const auto [headers, scraped] = http_get(port, "/metrics");
  EXPECT_NE(headers.find("200"), std::string::npos);
  EXPECT_NE(headers.find("text/plain; version=0.0.4"), std::string::npos)
      << "Prometheus scrapers key on the exposition-format content type";
  const std::string exported = runtime.metrics_prometheus();
  EXPECT_EQ(without_device_seconds(scraped), without_device_seconds(exported))
      << "live scrape and --metrics-out diverged beyond the wall-clock gauge";
  EXPECT_NE(scraped.find("saclo_jobs_completed_total 4"), std::string::npos);
  EXPECT_NE(scraped.find("saclo_build_info{"), std::string::npos);
  EXPECT_NE(scraped.find("saclo_events_dropped_total 0"), std::string::npos);
}

TEST(TelemetryServeTest, HealthAndReadinessReflectFleetState) {
  ServeRuntime runtime(telemetry_options());
  const int port = runtime.telemetry()->port();
  auto [h_headers, h_body] = http_get(port, "/healthz");
  EXPECT_NE(h_headers.find("200"), std::string::npos);
  EXPECT_NE(h_body.find("ok"), std::string::npos);
  auto [r_headers, r_body] = http_get(port, "/readyz");
  EXPECT_NE(r_headers.find("200"), std::string::npos);
  EXPECT_NE(r_body.find("ready"), std::string::npos);
  runtime.drain();
}

TEST(TelemetryServeTest, DebugEndpointsServeLiveSnapshots) {
  ServeRuntime runtime(telemetry_options());
  const int port = runtime.telemetry()->port();
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 2; ++i) futures.push_back(runtime.submit(small_job()));
  for (auto& f : futures) f.get();
  runtime.drain();

  // /debug/fleet is the JSON metrics document.
  const auto [f_headers, fleet] = http_get(port, "/debug/fleet");
  EXPECT_NE(f_headers.find("application/json"), std::string::npos);
  const Json fleet_json = parse_json(fleet);
  ASSERT_TRUE(fleet_json.is_object());
  EXPECT_DOUBLE_EQ(fleet_json.at("jobs_completed").number, 2.0);

  // /debug/trace is the merged Chrome trace built so far.
  const auto [t_headers, trace] = http_get(port, "/debug/trace");
  const Json trace_json = parse_json(trace);
  EXPECT_FALSE(trace_json.at("traceEvents").array.empty());

  // /debug/events tails the event log; n bounds the tail.
  const auto [e_headers, events] = http_get(port, "/debug/events?n=3");
  EXPECT_NE(e_headers.find("application/x-ndjson"), std::string::npos);
  int lines = 0;
  std::istringstream stream(events);
  for (std::string line; std::getline(stream, line);) {
    if (!line.empty()) {
      EXPECT_TRUE(parse_json(line).is_object());
      ++lines;
    }
  }
  EXPECT_GT(lines, 0);
  EXPECT_LE(lines, 3);
}

TEST(TelemetryServeTest, DebugEventsWithoutEventLogIs404) {
  ServeRuntime::Options opts;
  opts.devices = 1;
  opts.telemetry_port = 0;
  ServeRuntime runtime(opts);  // event log off
  const auto [headers, body] = http_get(runtime.telemetry()->port(), "/debug/events");
  EXPECT_NE(headers.find("404"), std::string::npos);
  EXPECT_NE(body.find("event_log_capacity"), std::string::npos)
      << "the 404 should say how to turn the log on: " << body;
  runtime.drain();
}

TEST(TelemetryServeTest, MidRunScrapeIsSafeWhileDispatchersRecord) {
  // Scrape every endpoint WHILE jobs run: snapshot-based reads must
  // not race the recording side (TSan builds of this suite are the
  // proof) and must never wedge the fleet.
  ServeRuntime runtime(telemetry_options());
  const int port = runtime.telemetry()->port();
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(runtime.submit(small_job()));
  for (int round = 0; round < 3; ++round) {
    for (const char* path : {"/metrics", "/healthz", "/readyz", "/debug/trace",
                             "/debug/fleet", "/debug/events?n=8"}) {
      const auto [headers, body] = http_get(port, path);
      EXPECT_FALSE(headers.empty()) << path << " returned nothing mid-run";
    }
  }
  for (auto& f : futures) f.get();
  runtime.drain();
  EXPECT_GE(runtime.telemetry()->requests_served(), 18u);
}

TEST(TelemetryServeTest, ShutdownStopsTheEndpoint) {
  ServeRuntime runtime(telemetry_options());
  obs::TelemetryServer* server = runtime.telemetry();
  ASSERT_TRUE(server->running());
  runtime.drain();
  runtime.shutdown();
  EXPECT_FALSE(server->running());
}

TEST(TelemetryServeTest, CriticalPathAnalyzerAttributesTheRun) {
  ServeRuntime runtime(telemetry_options());
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(runtime.submit(small_job()));
  for (auto& f : futures) f.get();
  runtime.drain();
  const obs::CriticalPath path =
      obs::analyze_critical_path(runtime.device_traces(), runtime.events());
  EXPECT_GT(path.makespan_us, 0.0);
  EXPECT_EQ(path.devices.size(), 2u);
  EXPECT_EQ(path.jobs_waited, 3);
  ASSERT_FALSE(path.routes.empty());
  EXPECT_EQ(path.routes[0].route, "sac") << "default jobs run the SaC route";
  const std::string report = obs::critical_path_report(path);
  EXPECT_NE(report.find("critical path"), std::string::npos);
  EXPECT_NE(report.find("gpu0"), std::string::npos);
  EXPECT_NE(report.find("queue wait"), std::string::npos);
}

TEST(TelemetryServeTest, AlertMonitorRaisesOnFaultsAndServesAlerts) {
  // A fleet whose device 0 dies permanently: the degraded-device rule
  // must raise through the monitor, the runtime must log the
  // alert_raised wire event, and /alerts must show the active alert.
  ServeRuntime::Options opts = testsupport::faulty_fleet_options(
      2, FaultPlanBuilder()
             .fail_after_kernels(/*device=*/0, /*kernels=*/0, /*recurring=*/true)
             .build());
  opts.start_paused = false;  // dispatch immediately; no staged placement here
  opts.telemetry_port = 0;
  opts.event_log_capacity = 4096;
  ServeRuntime runtime(opts);

  AlertMonitorOptions monitor_options;
  monitor_options.interval_ms = -1;  // manual sampling: deterministic
  AlertMonitor monitor(runtime, monitor_options);

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(runtime.submit(small_job()));
  for (auto& f : futures) f.get();
  runtime.drain();

  const std::vector<obs::AlertTransition> fired = monitor.sample_now();
  bool degraded_raised = false;
  for (const obs::AlertTransition& t : fired) {
    if (t.kind == obs::AlertKind::DeviceDegraded && t.raised) degraded_raised = true;
  }
  ASSERT_TRUE(degraded_raised) << "permanently faulted device never raised";
  EXPECT_EQ(monitor.active().size(), 1u);

  // The wire event landed in the log with the kind in arg.
  bool wire_event = false;
  std::istringstream events(runtime.events_jsonl());
  for (std::string line; std::getline(events, line);) {
    if (line.find("\"event\":\"alert_raised\"") != std::string::npos) {
      wire_event = true;
      EXPECT_NE(line.find("\"arg\":2"), std::string::npos)
          << "arg should carry AlertKind::DeviceDegraded: " << line;
    }
  }
  EXPECT_TRUE(wire_event);

  // The gauge and the endpoint agree.
  EXPECT_NE(runtime.metrics_prometheus().find("saclo_alerts_active 1"),
            std::string::npos);
  const auto [headers, body] = http_get(runtime.telemetry()->port(), "/alerts");
  EXPECT_NE(headers.find("application/json"), std::string::npos);
  EXPECT_NE(body.find("device_degraded"), std::string::npos) << body;

  // After stop() the endpoint answers honestly instead of dangling.
  monitor.stop();
  const auto [stopped_headers, stopped_body] =
      http_get(runtime.telemetry()->port(), "/alerts");
  EXPECT_NE(stopped_headers.find("503"), std::string::npos);
  EXPECT_NE(stopped_body.find("stopped"), std::string::npos);

  // The JSONL alert log renders one line per transition.
  const std::string log = monitor.transitions_jsonl();
  EXPECT_NE(log.find("\"type\":\"alert_raised\""), std::string::npos);
  EXPECT_NE(log.find("\"kind\":\"device_degraded\""), std::string::npos);
}

TEST(TelemetryServeTest, BackgroundMonitorSamplesOnItsOwn) {
  ServeRuntime runtime(telemetry_options());
  AlertMonitorOptions monitor_options;
  monitor_options.interval_ms = 5;
  {
    AlertMonitor monitor(runtime, monitor_options);
    std::vector<std::future<JobResult>> futures;
    for (int i = 0; i < 2; ++i) futures.push_back(runtime.submit(small_job()));
    for (auto& f : futures) f.get();
    runtime.drain();
    // A healthy run raises nothing; the destructor joins the thread.
    EXPECT_TRUE(monitor.transitions().empty());
  }
  runtime.shutdown();
}

TEST(TelemetryServeTest, ControlBytesInTenantKeepFleetJsonStrict) {
  // --json prints metrics_json(); /debug/fleet serves the same document.
  const std::string hostile = "ev\til\r\x01";
  ServeRuntime runtime(telemetry_options());
  JobSpec spec = small_job();
  spec.tenant = hostile;
  runtime.submit(spec).get();
  runtime.drain();
  EXPECT_EQ(parse_json(runtime.metrics_json()).at("tenants").array.at(0).at("tenant").string,
            hostile);
  const auto [headers, fleet] = http_get(runtime.telemetry()->port(), "/debug/fleet");
  EXPECT_EQ(parse_json(fleet).at("tenants").array.at(0).at("tenant").string, hostile);
}

TEST(TelemetryServeTest, OfflineAnalyzerAgreesWithTheLiveOne) {
  // A faulted run under the priority policy: the analyzer fed the
  // exported trace and event log must reproduce the live attribution,
  // exactly in every count and within the files' rendering precision
  // (0.001 us per span, 0.1 us per event) in every time.
  ServeRuntime::Options opts = testsupport::faulty_fleet_options(
      2, FaultPlanBuilder().fail_after_kernels(/*device=*/0, /*kernels=*/4).build());
  opts.start_paused = false;
  opts.policy = SchedPolicy::Priority;
  opts.event_log_capacity = 4096;
  ServeRuntime runtime(opts);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i) {
    JobSpec spec = small_job();
    spec.frames = 6;
    spec.priority = i % 2 == 0 ? Priority::Low : Priority::High;
    spec.route = i % 3 == 2 ? Route::Gaspard : Route::SacNongeneric;
    futures.push_back(runtime.submit(spec));
  }
  for (auto& f : futures) f.get();
  runtime.drain();

  const obs::CriticalPath live =
      obs::analyze_critical_path(runtime.device_traces(), runtime.events());
  const obs::CriticalPath offline =
      obs::analyze_critical_path(obs::parse_chrome_trace(runtime.merged_trace_json()),
                                 obs::parse_event_log(runtime.events_jsonl()));
  EXPECT_GE(live.failovers, 1);
  EXPECT_EQ(offline.jobs_waited, live.jobs_waited);
  EXPECT_EQ(offline.preemptions, live.preemptions);
  EXPECT_EQ(offline.failovers, live.failovers);
  EXPECT_EQ(offline.drains, live.drains);
  EXPECT_NEAR(offline.queue_wait_total_us, live.queue_wait_total_us, 0.1 * live.jobs_waited);
  EXPECT_NEAR(offline.queue_wait_max_us, live.queue_wait_max_us, 0.1);

  std::size_t spans = 0;
  for (const obs::DeviceTrace& d : runtime.device_traces()) spans += d.intervals.size();
  const double tol = 1e-3 * static_cast<double>(spans + 1);
  EXPECT_NEAR(offline.makespan_us, live.makespan_us, tol);
  ASSERT_EQ(offline.devices.size(), live.devices.size());
  for (std::size_t i = 0; i < live.devices.size(); ++i) {
    const obs::DeviceAttribution& a = live.devices[i];
    const obs::DeviceAttribution& b = offline.devices[i];
    EXPECT_EQ(b.device, a.device);
    EXPECT_NEAR(b.kernel_us, a.kernel_us, tol);
    EXPECT_NEAR(b.h2d_us, a.h2d_us, tol);
    EXPECT_NEAR(b.d2h_us, a.d2h_us, tol);
    EXPECT_NEAR(b.host_us, a.host_us, tol);
    EXPECT_NEAR(b.busy_us, a.busy_us, tol);
    EXPECT_NEAR(b.span_us, a.span_us, tol);
    EXPECT_EQ(b.preemptions, a.preemptions);
    EXPECT_EQ(b.faults, a.faults);
    EXPECT_EQ(b.drains, a.drains);
  }
  // Rows whose totals tie within the precision may swap places, so
  // compare stages and routes by name.
  ASSERT_EQ(offline.stages.size(), live.stages.size());
  for (const obs::StageAttribution& a : live.stages) {
    const auto b = std::find_if(offline.stages.begin(), offline.stages.end(),
                                [&](const obs::StageAttribution& s) { return s.name == a.name; });
    ASSERT_NE(b, offline.stages.end()) << a.name;
    EXPECT_EQ(b->category, a.category);
    EXPECT_EQ(b->calls, a.calls);
    EXPECT_NEAR(b->total_us, a.total_us, tol);
  }
  ASSERT_EQ(offline.routes.size(), live.routes.size());
  for (const obs::RouteAttribution& a : live.routes) {
    const auto b = std::find_if(offline.routes.begin(), offline.routes.end(),
                                [&](const obs::RouteAttribution& r) { return r.route == a.route; });
    ASSERT_NE(b, offline.routes.end()) << a.route;
    EXPECT_EQ(b->spans, a.spans);
    EXPECT_NEAR(b->kernel_us, a.kernel_us, tol);
  }
}

}  // namespace
}  // namespace saclo::serve
