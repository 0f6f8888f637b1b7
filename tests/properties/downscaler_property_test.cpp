#include <gtest/gtest.h>

#include "apps/downscaler/frames.hpp"
#include "apps/downscaler/pipelines.hpp"
#include "core/fmt.hpp"

namespace saclo::apps {
namespace {

/// Property sweep over downscaler geometries: all five implementation
/// routes (interpreter via SAC-Seq, SAC-CUDA generic/non-generic,
/// GASPARD2) must agree bit-exact, and the structural invariants
/// (kernel counts, transfer counts, host fallbacks) must hold for every
/// geometry, not just the paper's.
struct Geometry {
  std::int64_t height;
  std::int64_t width;
  FilterSpec h;
  FilterSpec v;
};

class DownscalerProperty : public ::testing::TestWithParam<Geometry> {
 protected:
  DownscalerConfig config() const {
    DownscalerConfig cfg;
    cfg.height = GetParam().height;
    cfg.width = GetParam().width;
    cfg.h = GetParam().h;
    cfg.v = GetParam().v;
    cfg.validate();
    return cfg;
  }
};

TEST_P(DownscalerProperty, AllFiveRoutesAgree) {
  const DownscalerConfig cfg = config();
  SacDownscaler::Options ng_opts;
  SacDownscaler::Options g_opts;
  g_opts.generic = true;
  SacDownscaler ng(cfg, ng_opts);
  SacDownscaler g(cfg, g_opts);
  GaspardDownscaler::Options gopts;
  gopts.rgb = false;
  GaspardDownscaler gd(cfg, gopts);

  auto cuda_ng = ng.run_cuda_chain(1, 1, 1);
  auto cuda_g = g.run_cuda_chain(1, 1, 1);
  auto seq = ng.run_seq(ng.filter_programs(), 1, true);
  auto gaspard = gd.run(1, 1);

  ASSERT_EQ(cuda_ng.last_output.shape(), cfg.out_shape());
  EXPECT_EQ(cuda_ng.last_output, cuda_g.last_output);
  EXPECT_EQ(cuda_ng.last_output, seq.last_output);
  EXPECT_EQ(cuda_ng.last_output, gaspard.last_output);
}

TEST_P(DownscalerProperty, StructuralInvariants) {
  const DownscalerConfig cfg = config();
  SacDownscaler::Options ng_opts;
  SacDownscaler ng(cfg, ng_opts);
  // At least one kernel per output-tile residue.
  EXPECT_GE(ng.h_kernels(), static_cast<int>(cfg.h.tile()));
  EXPECT_GE(ng.v_kernels(), static_cast<int>(cfg.v.tile()));
  // The fused non-generic pipeline never touches the host.
  EXPECT_EQ(ng.program().host_block_count(), 0);
  // Chain transfers: one upload + one download per frame/channel.
  auto r = ng.run_cuda_chain(4, 2, 1);
  EXPECT_EQ(r.h.h2d_calls, 8);
  EXPECT_EQ(r.v.d2h_calls, 8);
  EXPECT_EQ(r.h.kernel_launches, static_cast<std::int64_t>(ng.h_kernels()) * 8);
}

TEST_P(DownscalerProperty, OutputIsWithinPixelRange) {
  // The 6-tap average of 8-bit data stays within [0, 255] after the
  // paper's tmp/6 - tmp%6 computation can dip slightly below the mean;
  // it must never leave [-win, 255].
  const DownscalerConfig cfg = config();
  SacDownscaler::Options opts;
  SacDownscaler ng(cfg, opts);
  auto r = ng.run_cuda_chain(1, 1, 1);
  for (std::int64_t i = 0; i < r.last_output.elements(); ++i) {
    EXPECT_GE(r.last_output[i], -cfg.h.window - cfg.v.window);
    EXPECT_LE(r.last_output[i], 255);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DownscalerProperty,
    ::testing::Values(
        // The paper's geometry, scaled down.
        Geometry{18, 32, {11, 8, {0, 2, 5}, 6}, {13, 9, {0, 2, 5, 7}, 6}},
        // Non-overlapping patterns (pattern == paving).
        Geometry{18, 32, {8, 8, {0, 1, 2}, 6}, {9, 9, {0, 1, 2, 3}, 6}},
        // 2:1 halving in both directions with 4-tap windows.
        Geometry{16, 24, {5, 4, {0, 2}, 3}, {5, 4, {0, 2}, 3}},
        // Asymmetric: wide horizontal windows, narrow vertical ones.
        Geometry{12, 40, {13, 10, {0, 3, 6}, 7}, {7, 6, {0, 2, 4}, 3}},
        // Single-output tiles (pure decimation).
        Geometry{18, 32, {6, 8, {0}, 6}, {4, 9, {0}, 4}}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return saclo::cat("g", info.index, "_", info.param.height, "x", info.param.width);
    });

}  // namespace
}  // namespace saclo::apps
