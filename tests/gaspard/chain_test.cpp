#include "gaspard/chain.hpp"

#include <gtest/gtest.h>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/config.hpp"
#include "apps/downscaler/frames.hpp"
#include "support/pixels.hpp"

namespace saclo::gaspard {
namespace {

using apps::DownscalerConfig;

TEST(ChainTest, BuildsOneKernelPerTask) {
  const DownscalerConfig cfg = DownscalerConfig::tiny();
  OpenClApplication app = OpenClApplication::build(apps::build_downscaler_model(cfg));
  // GASPARD2 maps each elementary task to one kernel: 3 channels x 2
  // filters = 6 kernels — the paper's "H. Filter (3 kernels)" + "V.
  // Filter (3 kernels)".
  EXPECT_EQ(app.kernels().size(), 6u);
  int hf = 0;
  int vf = 0;
  for (const TaskKernel& k : app.kernels()) {
    if (k.name.find("hf") != std::string::npos) ++hf;
    if (k.name.find("vf") != std::string::npos) ++vf;
  }
  EXPECT_EQ(hf, 3);
  EXPECT_EQ(vf, 3);
}

TEST(ChainTest, KernelWorkItemsAreRepetitionPoints) {
  const DownscalerConfig cfg = DownscalerConfig::paper();
  OpenClApplication app = OpenClApplication::build(apps::build_downscaler_model(cfg));
  for (const TaskKernel& k : app.kernels()) {
    if (k.name.find("hf") != std::string::npos) {
      EXPECT_EQ(k.work_items, 1080 * 240);
    } else {
      EXPECT_EQ(k.work_items, 120 * 720);
    }
  }
}

TEST(ChainTest, GeneratedSourceHasFigure11Shape) {
  // The paper's Figure 11: work-item decode with iGID % extent,
  // reference point from the paving matrix, pattern filling from the
  // fitting matrix, modular wrap by the array extents.
  const DownscalerConfig cfg = DownscalerConfig::paper();
  OpenClApplication app = OpenClApplication::build(apps::build_downscaler_model(cfg));
  const std::string src = app.opencl_source();
  EXPECT_NE(src.find("__kernel void KRN_bhf"), std::string::npos);
  EXPECT_NE(src.find("get_global_id(0)"), std::string::npos);
  EXPECT_NE(src.find("tlIter[0] = iGID % 1080;"), std::string::npos);
  EXPECT_NE(src.find("ref[1] = 0 + 0*tlIter[0] + 8*tlIter[1];"), std::string::npos);
  EXPECT_NE(src.find("% 1920"), std::string::npos);
  EXPECT_NE(src.find("__global const int*"), std::string::npos);
}

TEST(ChainTest, TilerCodeEmitsPavingAndFitting) {
  const DownscalerConfig cfg = DownscalerConfig::paper();
  aol::Model m = apps::build_single_channel_model(cfg);
  const aol::RepetitiveTask& hf = m.tasks()[0];
  const std::string code =
      emit_tiler_code(hf, hf.inputs[0], /*is_input=*/true, m.array_shape("frame_y"));
  EXPECT_NE(code.find("ref[0] = 0 + 1*tlIter[0] + 0*tlIter[1];"), std::string::npos);
  EXPECT_NE(code.find("for(tl[0]=0; tl[0] < 11; tl[0]++)"), std::string::npos);
  EXPECT_NE(code.find("+ 1*tl[0]) % 1920"), std::string::npos);
}

TEST(ChainTest, SimulatedRunMatchesReferenceEvaluation) {
  const DownscalerConfig cfg = DownscalerConfig::tiny();
  aol::Model model = apps::build_downscaler_model(cfg);
  OpenClApplication app = OpenClApplication::build(model);

  std::map<std::string, IntArray> inputs;
  int ch = 0;
  for (const std::string& in : model.inputs()) {
    inputs.emplace(in, apps::synthetic_channel(cfg.frame_shape(), 3, ch++));
  }
  const auto expected = aol::evaluate(model, inputs);

  gpu::VirtualGpu gpu(gpu::gtx480(), 2);
  gpu::opencl::CommandQueue queue(gpu);
  const auto actual = app.run(queue, testsupport::pixels_of(inputs), /*execute=*/true);
  ASSERT_EQ(actual.size(), 3u);
  for (const auto& [name, arr] : actual) {
    EXPECT_EQ(arr, expected.at(name)) << name;
  }
}

TEST(ChainTest, TransferAndKernelCountsPerInvocation) {
  const DownscalerConfig cfg = DownscalerConfig::tiny();
  OpenClApplication app = OpenClApplication::build(apps::build_downscaler_model(cfg));
  gpu::VirtualGpu gpu(gpu::gtx480(), 1);
  gpu::opencl::CommandQueue queue(gpu);
  app.run(queue, {}, /*execute=*/false);
  std::int64_t h2d = 0;
  std::int64_t d2h = 0;
  std::int64_t kernels = 0;
  for (const auto& row : gpu.profiler().rows()) {
    if (row.kind == gpu::OpKind::MemcpyHtoD) h2d += row.calls;
    if (row.kind == gpu::OpKind::MemcpyDtoH) d2h += row.calls;
    if (row.kind == gpu::OpKind::Kernel) kernels += row.calls;
  }
  // Per frame: 3 channel uploads, 3 result downloads, 6 kernels — the
  // paper's 900/900 counts over 300 frames.
  EXPECT_EQ(h2d, 3);
  EXPECT_EQ(d2h, 3);
  EXPECT_EQ(kernels, 6);
}

TEST(ChainTest, TimingOnlyEqualsExecutedTiming) {
  const DownscalerConfig cfg = DownscalerConfig::tiny();
  aol::Model model = apps::build_downscaler_model(cfg);
  OpenClApplication app = OpenClApplication::build(model);
  std::map<std::string, PixelArray> inputs;
  int ch = 0;
  for (const std::string& in : model.inputs()) {
    inputs.emplace(in, apps::synthetic_pixels(cfg.frame_shape(), 0, ch++));
  }
  gpu::VirtualGpu gpu(gpu::gtx480(), 1);
  gpu::opencl::CommandQueue queue(gpu);
  app.run(queue, inputs, true);
  const double first = gpu.clock_us();
  app.run(queue, inputs, false);
  EXPECT_NEAR(gpu.clock_us() - first, first, first * 1e-9);
}

TEST(ChainTest, HFilterKernelCostMatchesPaperMagnitude) {
  // One GASPARD2 horizontal-filter launch at paper scale should land
  // near Table I's 938us per call.
  const DownscalerConfig cfg = DownscalerConfig::paper();
  OpenClApplication app = OpenClApplication::build(apps::build_downscaler_model(cfg));
  const gpu::DeviceSpec dev = gpu::gtx480();
  for (const TaskKernel& k : app.kernels()) {
    if (k.name.find("hf") == std::string::npos) continue;
    const double us = gpu::kernel_time_us(dev, k.work_items, k.cost);
    EXPECT_GT(us, 938.0 * 0.6) << k.name;
    EXPECT_LT(us, 938.0 * 1.4) << k.name;
  }
}

}  // namespace
}  // namespace saclo::gaspard
