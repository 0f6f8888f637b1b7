// Asserts the observability additions cost zero heap allocations on the
// dispatch hot path: recording a histogram sample, emitting a ring
// event, folding a completed job into the metrics registry, and the
// trace bracketing around a job are all allocation-free. This file
// replaces the global operator new with a counting wrapper, so it links
// into its own test binary (obs_alloc_tests) and nothing else.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include "gpu/profiler.hpp"
#include "obs/events.hpp"
#include "obs/histogram.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "serve/metrics.hpp"

namespace {
thread_local std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace saclo {
namespace {

/// Allocations performed by `fn` on this thread.
template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = g_allocations;
  fn();
  return g_allocations - before;
}

TEST(ZeroAllocTest, HistogramRecordDoesNotAllocate) {
  obs::LogHistogram hist;
  hist.record(1.0);  // warm nothing — the histogram is a flat array
  EXPECT_EQ(allocations_of([&] {
              for (int i = 0; i < 1000; ++i) hist.record(static_cast<double>(i) * 3.7);
            }),
            0u);
}

TEST(ZeroAllocTest, EventLogEmitDoesNotAllocate) {
  obs::EventLog log(1024);  // the ring preallocates here, before counting
  obs::Event e;
  e.type = obs::EventType::FrameDone;
  e.job = 1;
  EXPECT_EQ(allocations_of([&] {
              for (int i = 0; i < 512; ++i) {
                e.arg = i;
                log.emit(e);
              }
            }),
            0u);
  // Overflow drops are free too — the whole point of the bounded ring.
  EXPECT_EQ(allocations_of([&] {
              for (int i = 0; i < 1024; ++i) log.emit(e);
            }),
            0u);
}

/// One job's transitions as the runtime records them: submit,
/// dispatch, a frame and a completion past its deadline.
void record_job(serve::FleetMetrics& metrics, const serve::JobResult& result, int i) {
  metrics.on_submit(result.id, 0, result.tenant, result.frames, 1000.0);
  metrics.on_dispatch(result.id, 0, 0, 1000.0 * i);
  metrics.on_frame_done(result.id, 0, 0, 0, 1000.0 * i);
  metrics.on_complete(0, result, 1000.0 * (i + 1));
}

serve::JobResult late_job() {
  serve::JobResult result;
  result.id = 7;
  result.tenant = "gold";
  result.frames = 4;
  result.sim_wall_us = 1000.0;
  result.latency_us = 2000.0;
  result.deadline_us = 1500.0;
  result.slo_met = false;
  return result;
}

TEST(ZeroAllocTest, MetricsRecordingDoesNotAllocate) {
  // The former per-job latency vectors re-allocated as they grew; the
  // histogram-backed registry must not allocate per completed job,
  // with or without an event log attached (the log's ring fills and
  // then drops, both without allocating).
  const serve::JobResult result = late_job();
  serve::FleetMetrics metrics(2);
  record_job(metrics, result, 0);  // warm any lazy lock state and the tenant entry
  EXPECT_EQ(allocations_of([&] {
              for (int i = 0; i < 200; ++i) record_job(metrics, result, i);
            }),
            0u);

  serve::FleetMetrics logged(2);
  obs::EventLog log(512);
  obs::TraceClock clock;
  logged.attach_event_log(&log, &clock, 0);
  record_job(logged, result, 0);
  EXPECT_EQ(allocations_of([&] {
              for (int i = 0; i < 200; ++i) record_job(logged, result, i);
            }),
            0u);
  EXPECT_EQ(log.recorded(), 512u);
  EXPECT_GT(log.dropped(), 0u);
}

TEST(ZeroAllocTest, RecordingStaysFreeWhileTelemetryIsScraped) {
  // The tentpole guarantee of the live plane: a concurrent /metrics
  // scraper must not add a single allocation to the recording path.
  // The allocation counter is thread_local, so this measures exactly
  // the hot path's own cost — the accept thread renders snapshots on
  // its own dime.
  serve::FleetMetrics metrics(1);
  obs::EventLog log(1024);
  obs::TraceClock clock;
  metrics.attach_event_log(&log, &clock, 0);
  obs::TelemetryServer server(0);
  server.handle("/metrics", [&](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                             metrics.prometheus()};
  });
  server.start();

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) continue;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        const char req[] = "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
        (void)::send(fd, req, sizeof(req) - 1, 0);
        char buf[4096];
        while (::recv(fd, buf, sizeof(buf), 0) > 0) {
        }
      }
      ::close(fd);
    }
  });

  const serve::JobResult result = late_job();
  record_job(metrics, result, 0);  // warm lazy state before counting
  EXPECT_EQ(allocations_of([&] {
              for (int i = 0; i < 500; ++i) record_job(metrics, result, i);
            }),
            0u);
  // Let at least one scrape land before shutting down, so the loop
  // above provably overlapped a live scraper.
  while (server.requests_served() == 0) std::this_thread::yield();

  done.store(true, std::memory_order_release);
  scraper.join();
  server.stop();
}

TEST(ZeroAllocTest, TraceBracketingDoesNotAllocate) {
  // What the dispatcher adds around every job when tracing is on — and
  // the entirety of the observability cost when the event log is off.
  gpu::Profiler profiler;
  EXPECT_EQ(allocations_of([&] {
              for (int i = 0; i < 1000; ++i) {
                profiler.set_trace(static_cast<std::uint64_t>(i + 1), 0);
                profiler.clear_trace();
              }
            }),
            0u);
}

}  // namespace
}  // namespace saclo
