// Pins the fleet-merged Chrome trace and the critical-path report of
// one scripted two-device `sim` run: two jobs per route at tiny
// geometry, submitted to a paused fleet so placement and batching are
// fixed, one same-key pair coalesced into a batch. Every span time is
// simulated, so the trace is pinned whole (its FNV-1a hash, its span
// count and its first spans); the report masks only its real-clock
// queue-wait line.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <regex>
#include <string>
#include <vector>

#include "obs/critpath.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"

namespace saclo::serve {
namespace {

JobSpec tiny_job(Route route, int opt_level = 0) {
  JobSpec spec;
  spec.route = route;
  spec.config = apps::DownscalerConfig::tiny();
  spec.frames = 2;
  spec.exec_frames = 1;
  spec.opt_level = opt_level;
  return spec;
}

/// The scripted run: everything queues behind the pause, so the
/// placement of each job and the batch composition are decided before
/// any device runs.
struct ScriptedRun {
  ServeRuntime runtime;

  ScriptedRun() : runtime(options()) {
    const JobSpec jobs[] = {
        tiny_job(Route::SacGeneric),    tiny_job(Route::SacNongeneric),
        tiny_job(Route::SacNongeneric), tiny_job(Route::Gaspard, 2),
        tiny_job(Route::SacGeneric),    tiny_job(Route::Gaspard, 2),
    };
    std::vector<std::future<JobResult>> futures;
    for (const JobSpec& spec : jobs) futures.push_back(runtime.submit(spec));
    runtime.resume();
    for (auto& f : futures) f.get();
    runtime.drain();
  }

  static ServeRuntime::Options options() {
    ServeRuntime::Options opts;
    opts.devices = 2;
    opts.start_paused = true;
    opts.batch_max = 2;
    opts.preemption = false;
    opts.event_log_capacity = 1024;
    return opts;
  }
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

constexpr std::uint64_t kTraceHash = 13175271383025180053ull;
constexpr std::size_t kTraceSpans = 344;
constexpr std::size_t kBatchedSpans = 176;
/// The first four spans, after the process and thread names.
const char* const kFirstSpans =
    R"({"name":"memcpyHtoDasync","cat":"memcpy_h2d","ph":"X","pid":0,"tid":1,"ts":0.000,"dur":8)"
    R"(.430,"args":{"job":1,"attempt":0,"backend":"sim"}},{"name":"downscale_generic_w0_g0","ca)"
    R"(t":"kernel","ph":"X","pid":0,"tid":2,"ts":8.430,"dur":26.261,"args":{"job":1,"attempt":0)"
    R"(,"backend":"sim"}},{"name":"downscale_generic_w0_g1","cat":"kernel","ph":"X","pid":0,"ti)"
    R"(d":2,"ts":34.691,"dur":26.261,"args":{"job":1,"attempt":0,"backend":"sim"}},{"name":"dow)"
    R"(nscale_generic_w1_g0","cat":"kernel","ph":"X","pid":0,"tid":2,"ts":60.953,"dur":20.298,")"
    R"(args":{"job":1,"attempt":0,"backend":"sim"}},)";
const char* const kReport = R"(critical path — fleet makespan 3814.8 us (simulated)

device  busy    kernel  h2d     d2h     host    idle    stalls (preempt/fault/drain)  
gpu0    100.0%  82.0%   14.1%   20.4%   1.0%    0.0%    0/0/0                         
gpu1    100.0%  93.0%   5.3%    7.6%    0.4%    0.0%    0/0/0                         

queue wait (real): 6 jobs, *
stalls: 0 preemptions, 0 failovers, 0 drains

routes (kernel time):
  sac       4448.3 us over 192 spans
  gaspard   270.9 us over 8 spans

top stages (of 22):
  stage                       cat         calls   total us    % busy  
  memcpyDtoHasync             memcpy_d2h  72      582.2       11.1%   
  memcpyHtoDasync             memcpy_h2d  48      401.4       7.7%    
  downscale_generic_w5_g0     kernel      12      340.2       6.5%    
  downscale_generic_w5_g1     kernel      12      340.2       6.5%    
  downscale_generic_w0_g0     kernel      12      315.1       6.0%    
  downscale_generic_w0_g1     kernel      12      315.1       6.0%    
  downscale_nongeneric_w0_g0  kernel      12      265.0       5.1%    
  downscale_nongeneric_w0_g1  kernel      12      265.0       5.1%    
  downscale_nongeneric_w0_g2  kernel      12      265.0       5.1%    
  downscale_nongeneric_w0_g3  kernel      12      265.0       5.1%    
)";

TEST(FleetTraceGoldenTest, MergedTraceOfAScriptedRun) {
  ScriptedRun run;
  const std::string trace = run.runtime.merged_trace_json();
  EXPECT_EQ(count_of(trace, "\"ph\":\"X\""), kTraceSpans);
  EXPECT_EQ(count_of(trace, "\"batch\":"), kBatchedSpans);
  const std::size_t first = trace.find("{\"name\":\"memcpyHtoDasync\"");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(trace.substr(first, std::string(kFirstSpans).size()), kFirstSpans);
  EXPECT_EQ(fnv1a(trace), kTraceHash);
}

TEST(FleetTraceGoldenTest, CriticalPathReportOfAScriptedRun) {
  ScriptedRun run;
  const std::string report = obs::critical_path_report(
      obs::analyze_critical_path(run.runtime.device_traces(), run.runtime.events()));
  const std::regex real_clock(R"(queue wait \(real\): (\d+) jobs, .*)");
  EXPECT_EQ(std::regex_replace(report, real_clock, "queue wait (real): $1 jobs, *"), kReport);
}

}  // namespace
}  // namespace saclo::serve
