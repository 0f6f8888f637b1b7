// Cross-backend differential suite: the sim and host execution backends
// must produce byte-identical downscaler output for the same job — both
// SaC tilers and the GASPARD route, across geometries, through the
// single-device reference path and the serving fleet, and under
// injected faults with failover. This is the suite the CI
// backend-differential job gates on.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <tuple>
#include <vector>

#include "fault/fault.hpp"
#include "gpu/backend_kind.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "support/fault_fixtures.hpp"

namespace saclo::serve {
namespace {

using testsupport::expect_zero_allocator_leaks;
using testsupport::FaultPlanBuilder;
using testsupport::faulty_fleet_options;

enum class Geometry { Tiny, Wide };

const char* geometry_name(Geometry g) { return g == Geometry::Tiny ? "Tiny" : "Wide"; }

apps::DownscalerConfig config_for(Geometry g) {
  apps::DownscalerConfig cfg = apps::DownscalerConfig::tiny();
  if (g == Geometry::Wide) {
    // Still test-sized, but a different paving multiple in both
    // directions so tile boundaries land elsewhere than in tiny().
    cfg.height = 36;
    cfg.width = 64;
  }
  return cfg;
}

JobSpec job_for(Route route, Geometry g) {
  JobSpec spec;
  spec.route = route;
  spec.config = config_for(g);
  spec.frames = 3;  // exec_frames = -1: every frame executes functionally
  return spec;
}

class BackendDifferentialTest
    : public ::testing::TestWithParam<std::tuple<Route, Geometry>> {};

// Single-device reference path: same spec, sim vs host backend — the
// output bytes and the operation mix must both be identical. The op
// counts matter beyond the pixels: identical counts are what make one
// fault plan strike the same boundary on either backend.
TEST_P(BackendDifferentialTest, ReferenceRunIsBitExactAcrossBackends) {
  const JobSpec spec = job_for(std::get<0>(GetParam()), std::get<1>(GetParam()));
  ServeRuntime::Options defaults;

  const JobResult sim = reference_run(spec, defaults.device, 1, gpu::BackendKind::Sim);
  const JobResult host = reference_run(spec, defaults.device, 1, gpu::BackendKind::Host);
  ASSERT_GT(sim.last_output.elements(), 0);

  EXPECT_EQ(host.last_output, sim.last_output) << "host diverged from sim";
  EXPECT_EQ(host.ops.kernel_launches, sim.ops.kernel_launches);
  EXPECT_EQ(host.ops.h2d_calls, sim.ops.h2d_calls);
  EXPECT_EQ(host.ops.d2h_calls, sim.ops.d2h_calls);

  // More workers change the host backend's chunking, never its output.
  const JobResult host4 = reference_run(spec, defaults.device, 4, gpu::BackendKind::Host);
  EXPECT_EQ(host4.last_output, sim.last_output) << "host output depends on worker count";
}

// The serving fleet on the host backend must agree with the sim
// reference, job for job.
TEST_P(BackendDifferentialTest, FleetOnHostBackendMatchesSimReference) {
  const JobSpec spec = job_for(std::get<0>(GetParam()), std::get<1>(GetParam()));
  ServeRuntime::Options opts;
  opts.devices = 2;
  opts.backend = gpu::BackendKind::Host;
  const JobResult reference = reference_run(spec, opts.device);

  ServeRuntime runtime(opts);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(runtime.submit(spec));
  for (auto& f : futures) {
    EXPECT_EQ(f.get().last_output, reference.last_output);
  }
  runtime.drain();
  EXPECT_EQ(runtime.metrics().snapshot().jobs_completed, 4);
}

INSTANTIATE_TEST_SUITE_P(
    AllRoutes, BackendDifferentialTest,
    ::testing::Combine(::testing::Values(Route::SacNongeneric, Route::SacGeneric,
                                         Route::Gaspard),
                       ::testing::Values(Geometry::Tiny, Geometry::Wide)),
    [](const ::testing::TestParamInfo<BackendDifferentialTest::ParamType>& info) {
      return std::string(route_name(std::get<0>(info.param))) + "_" +
             geometry_name(std::get<1>(info.param));
    });

class BackendFaultDifferentialTest : public ::testing::TestWithParam<Route> {};

// The acceptance scenario of the backends tentpole: the same fault plan
// on the same fleet, once per backend. On both, the job must fail over
// off the faulted device and complete bit-exact against the fault-free
// reference — identical fault boundaries are part of the backend
// contract, not a sim-only feature.
TEST_P(BackendFaultDifferentialTest, FaultedFailoverIsBitExactOnEveryBackend) {
  const JobSpec spec = job_for(GetParam(), Geometry::Tiny);
  ServeRuntime::Options defaults;
  const JobResult reference = reference_run(spec, defaults.device);
  ASSERT_GE(reference.ops.kernel_launches, 2);

  for (gpu::BackendKind backend : {gpu::BackendKind::Sim, gpu::BackendKind::Host}) {
    // Mid-job kernel fault on device 0; device 1 finishes the work.
    ServeRuntime::Options opts = faulty_fleet_options(
        2, FaultPlanBuilder()
               .fail_after_kernels(0, reference.ops.kernel_launches / 2)
               .build());
    opts.backend = backend;
    ServeRuntime runtime(opts);
    auto future = runtime.submit(spec);
    runtime.resume();
    const JobResult r = future.get();
    runtime.drain();

    const char* name = gpu::backend_kind_name(backend);
    EXPECT_EQ(r.device, 1) << name;
    EXPECT_EQ(r.attempts, 1) << name;
    EXPECT_EQ(r.last_output, reference.last_output)
        << name << ": faulted failover diverged from the fault-free run";
    const FleetMetrics::Snapshot s = runtime.metrics().snapshot();
    EXPECT_EQ(s.device_faults, 1) << name;
    EXPECT_EQ(s.jobs_completed, 1) << name;
    EXPECT_EQ(s.jobs_failed, 0) << name;
    expect_zero_allocator_leaks(runtime);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRoutes, BackendFaultDifferentialTest,
                         ::testing::Values(Route::SacNongeneric, Route::SacGeneric,
                                           Route::Gaspard),
                         [](const ::testing::TestParamInfo<Route>& info) {
                           return route_name(info.param);
                         });

// --- Fused-vs-unfused differential -------------------------------------------
//
// The Array-OL optimizer rewrites the gaspard model (kernel fusion,
// paving changes, channel merges) before code generation. The rewritten
// schedule must be bit-identical to the unfused one on every backend —
// the optimizer is a scheduling change, never a semantic one.

/// A geometry large enough that the cost model actually adopts the
/// fusion rewrites (tiny() is refused by the occupancy floor).
apps::DownscalerConfig fusing_config() {
  apps::DownscalerConfig cfg = apps::DownscalerConfig::tiny();
  cfg.height = 180;
  cfg.width = 256;
  return cfg;
}

class OptLevelDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(OptLevelDifferentialTest, FusedScheduleIsBitExactOnEveryBackend) {
  JobSpec spec;
  spec.route = Route::Gaspard;
  spec.config = fusing_config();
  spec.frames = 2;
  ServeRuntime::Options defaults;
  const JobResult unfused = reference_run(spec, defaults.device);
  ASSERT_GT(unfused.last_output.elements(), 0);

  spec.opt_level = GetParam();
  for (gpu::BackendKind backend : {gpu::BackendKind::Sim, gpu::BackendKind::Host}) {
    const char* name = gpu::backend_kind_name(backend);
    const JobResult fused = reference_run(spec, defaults.device, 1, backend);
    EXPECT_EQ(fused.last_output, unfused.last_output)
        << name << ": opt_level " << spec.opt_level << " diverged from unfused";
    // The whole point of the rewrite: fewer, larger kernels per frame.
    EXPECT_LT(fused.ops.kernel_launches, unfused.ops.kernel_launches)
        << name << ": opt_level " << spec.opt_level << " did not reduce launches";
  }
}

TEST_P(OptLevelDifferentialTest, FusedFaultedFailoverMatchesUnfusedReference) {
  JobSpec spec;
  spec.route = Route::Gaspard;
  spec.config = fusing_config();
  spec.frames = 2;
  ServeRuntime::Options defaults;
  const JobResult unfused = reference_run(spec, defaults.device);

  spec.opt_level = GetParam();
  const JobResult fused_ref = reference_run(spec, defaults.device);
  ASSERT_GE(fused_ref.ops.kernel_launches, 2);
  for (gpu::BackendKind backend : {gpu::BackendKind::Sim, gpu::BackendKind::Host}) {
    ServeRuntime::Options opts = faulty_fleet_options(
        2, FaultPlanBuilder()
               .fail_after_kernels(0, fused_ref.ops.kernel_launches / 2)
               .build());
    opts.backend = backend;
    ServeRuntime runtime(opts);
    auto future = runtime.submit(spec);
    runtime.resume();
    const JobResult r = future.get();
    runtime.drain();

    const char* name = gpu::backend_kind_name(backend);
    EXPECT_EQ(r.attempts, 1) << name;
    EXPECT_EQ(r.last_output, unfused.last_output)
        << name << ": fused faulted failover diverged from the unfused fault-free run";
    expect_zero_allocator_leaks(runtime);
  }
}

INSTANTIATE_TEST_SUITE_P(FusionLevels, OptLevelDifferentialTest, ::testing::Values(1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string("O").append(std::to_string(info.param));
                         });

}  // namespace
}  // namespace saclo::serve
