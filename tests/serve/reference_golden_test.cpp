// Pins what a single-device reference run hands back, on `sim` and on
// `host`: the last output's FNV-1a checksum and element count, the op
// counts and, on `sim`, every simulated microsecond field of the op
// breakdown at full precision. The jobs are the four ci_default traffic
// classes and three paper-geometry (1080x1920) kinds with one executed
// frame: sacng, and gaspard at opt levels 0 and 2. A change to how
// frames are made, moved or computed shows here first.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/fmt.hpp"
#include "gpu/backend_kind.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "serve/traffic.hpp"

namespace saclo::serve {
namespace {

struct GoldenCase {
  std::string name;
  JobSpec spec;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  for (const TrafficClass& c : TrafficSpec::ci_default().classes) cases.push_back({c.name, c.job()});
  const auto paper = [](Route route, int opt_level) {
    JobSpec spec;
    spec.route = route;
    spec.config = apps::DownscalerConfig::paper();
    spec.frames = 1;
    spec.exec_frames = 1;
    spec.opt_level = opt_level;
    return spec;
  };
  cases.push_back({"paper-sacng", paper(Route::SacNongeneric, 0)});
  cases.push_back({"paper-gaspard-o0", paper(Route::Gaspard, 0)});
  cases.push_back({"paper-gaspard-o2", paper(Route::Gaspard, 2)});
  return cases;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a(const IntArray& a) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::int64_t v : a.data()) {
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<std::uint64_t>(v) >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// One line per run: what every backend must reproduce, then (sim only)
/// the simulated times, printed so that they round-trip exactly.
std::string summary(const JobResult& r, bool with_times) {
  std::string s = cat("checksum=", hex(fnv1a(r.last_output)),
                      " elements=", r.last_output.elements(),
                      " launches=", r.ops.kernel_launches, " h2d=", r.ops.h2d_calls,
                      " d2h=", r.ops.d2h_calls);
  if (with_times) {
    s += cat(" kernel_us=", round_trip(r.ops.kernel_us), " h2d_us=", round_trip(r.ops.h2d_us),
             " d2h_us=", round_trip(r.ops.d2h_us), " host_us=", round_trip(r.ops.host_us),
             " wall_us=", round_trip(r.sim_wall_us));
  }
  return s;
}

const char* const kExpected[][2] = {
    // {case, sim summary}; host's is the same line up to " kernel_us=".
    {"gold-tiny",
     "checksum=f2eb4d9eedcaea7e elements=96 launches=120 h2d=12 d2h=12"
     " kernel_us=2650.458352941181 h2d_us=101.1582089552235"
     " d2h_us=96.731428571429 host_us=0 wall_us=2666.9491560684028"},
    {"gold-wide",
     "checksum=ad7a7c9c9e6724ec elements=384 launches=54 h2d=18 d2h=36"
     " kernel_us=1348.3482352941182 h2d_us=165.27761194029802"
     " d2h_us=302.2628571428569 host_us=81.3992142857148 wall_us=1819.532694782391"},
    {"silver-gaspard",
     "checksum=f2eb4d9eedcaea7e elements=96 launches=8 h2d=12 d2h=12"
     " kernel_us=270.9172705882353 h2d_us=101.15820895522383"
     " d2h_us=96.73142857142855 host_us=0 wall_us=320.38967996989834"},
    {"bronze-batch",
     "checksum=97551a1602445fc1 elements=1536 launches=60 h2d=6 d2h=6"
     " kernel_us=1325.2291764705883 h2d_us=89.26567164179099"
     " d2h_us=53.85142857142867 host_us=0 wall_us=1349.0820265061252"},
    {"paper-sacng",
     "checksum=429fd7f04627becf elements=345600 launches=30 h2d=3 d2h=3"
     " kernel_us=6710.009788235296 h2d_us=4666.388059701492"
     " d2h_us=682.2857142857138 host_us=0 wall_us=8492.90104623103"},
    {"paper-gaspard-o0",
     "checksum=429fd7f04627becf elements=345600 launches=6 h2d=3 d2h=3"
     " kernel_us=4078.136470588235 h2d_us=4666.388059701492"
     " d2h_us=682.2857142857147 host_us=0 wall_us=6253.195454659475"},
    {"paper-gaspard-o2",
     "checksum=429fd7f04627becf elements=345600 launches=1 h2d=3 d2h=3"
     " kernel_us=3486.164705882353 h2d_us=4666.388059701492"
     " d2h_us=682.285714285712 host_us=0 wall_us=8834.838479869557"},
};

std::string expected_for(const std::string& name) {
  for (const auto& e : kExpected) {
    if (name == e[0]) return e[1];
  }
  return "(no golden line)";
}

class ReferenceGoldenTest : public ::testing::TestWithParam<gpu::BackendKind> {};

TEST_P(ReferenceGoldenTest, ReferenceRunsMatchTheGoldenLines) {
  const gpu::BackendKind backend = GetParam();
  const bool sim = backend == gpu::BackendKind::Sim;
  const ServeRuntime::Options defaults;
  for (const GoldenCase& c : golden_cases()) {
    const JobResult r = reference_run(c.spec, defaults.device, sim ? 1 : 3, backend);
    std::string want = expected_for(c.name);
    if (!sim) want = want.substr(0, want.find(" kernel_us="));
    EXPECT_EQ(summary(r, sim), want) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ReferenceGoldenTest,
                         ::testing::Values(gpu::BackendKind::Sim, gpu::BackendKind::Host),
                         [](const auto& info) {
                           return std::string(gpu::backend_kind_name(info.param));
                         });

}  // namespace
}  // namespace saclo::serve
