#include "apps/downscaler/pipelines.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <span>
#include <vector>

#include "apps/downscaler/frames.hpp"
#include "gpu/executor.hpp"
#include "obs/export.hpp"
#include "sac/interp.hpp"
#include "sac/parser.hpp"
#include "sac/typecheck.hpp"

namespace saclo::apps {
namespace {

TEST(ConfigTest, PaperGeometry) {
  const DownscalerConfig cfg = DownscalerConfig::paper();
  EXPECT_EQ(cfg.mid_width(), 720);
  EXPECT_EQ(cfg.out_height(), 480);
  EXPECT_EQ(cfg.h_repetition(), (Shape{1080, 240}));
  EXPECT_EQ(cfg.v_repetition(), (Shape{120, 720}));
}

TEST(ConfigTest, ValidationCatchesBadGeometry) {
  DownscalerConfig cfg = DownscalerConfig::tiny();
  cfg.width = 33;  // not divisible by paving 8
  EXPECT_THROW(cfg.validate(), Error);
  cfg = DownscalerConfig::tiny();
  cfg.h.window_starts = {7};  // 7 + 6 > 11
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(SacSourceTest, GeneratedModuleParsesAndTypechecks) {
  const std::string src = downscaler_sac_source(DownscalerConfig::paper());
  const sac::Module m = sac::parse(src);
  EXPECT_NO_THROW(sac::typecheck(m));
  EXPECT_NE(m.find("hfilter_nongeneric"), nullptr);
  EXPECT_NE(m.find("vfilter_generic"), nullptr);
  EXPECT_NE(m.find("downscale_nongeneric"), nullptr);
}

TEST(FramesTest, SyntheticChannelsAre8Bit) {
  const IntArray c = synthetic_channel(Shape{18, 32}, 4, 1);
  for (std::int64_t i = 0; i < c.elements(); ++i) {
    EXPECT_GE(c[i], 0);
    EXPECT_LE(c[i], 255);
  }
  // Different frames / channels differ.
  EXPECT_NE(c, synthetic_channel(Shape{18, 32}, 5, 1));
  EXPECT_NE(c, synthetic_channel(Shape{18, 32}, 4, 2));
}

/// The synthetic pattern, written out once per pixel: a plaid, inverted
/// on alternate 16x16 blocks, with a moving diagonal bar of period w/4.
std::int64_t pixel(std::int64_t y, std::int64_t x, std::int64_t w, std::int64_t t,
                   std::int64_t c) {
  std::int64_t v = (x * 13 + y * 7 + t * 5 + c * 83) % 256;
  if (((x / 16) + (y / 16) + t) % 2 == 0) v = 255 - v;
  if ((x + y + 3 * t) % std::max<std::int64_t>(w / 4, 1) < 8) v = (v + 128) % 256;
  return v;
}

/// Rows [y0, y1) of `frame` (shape `s`) against the closed form.
::testing::AssertionResult rows_match(std::span<const std::int64_t> frame, const Shape& s, int t,
                                      int c, std::int64_t y0, std::int64_t y1) {
  for (std::int64_t y = y0; y < y1; ++y) {
    for (std::int64_t x = 0; x < s[1]; ++x) {
      const std::int64_t got = frame[static_cast<std::size_t>(y * s[1] + x)];
      if (got == pixel(y, x, s[1], t, c)) continue;
      return ::testing::AssertionFailure()
             << "shape " << s.to_string() << " frame " << t << " channel " << c << " at (" << y
             << ", " << x << "): " << got << " vs " << pixel(y, x, s[1], t, c);
    }
  }
  return ::testing::AssertionSuccess();
}

constexpr std::int64_t kPoison = -0x5A5A5A5A5A5A5A5A;

TEST(FramesTest, SyntheticChannelMatchesTheClosedFormOnEveryPixel) {
  auto expect_closed_form = [&](const Shape& s, int t, int c) {
    const IntArray a = synthetic_channel(s, t, c);
    ASSERT_EQ(a.shape(), s);
    ASSERT_TRUE(rows_match(a.data(), s, t, c, 0, s[0]));
  };
  const Shape shapes[] = {DownscalerConfig::tiny().frame_shape(),
                          DownscalerConfig::small().frame_shape(),
                          Shape{1, 1},
                          Shape{3, 2},
                          Shape{5, 3},
                          Shape{7, 37},
                          Shape{33, 65}};
  for (const Shape& s : shapes) {
    for (int t : {0, 3, 11}) {
      for (int c : {0, 1, 2}) {
        expect_closed_form(s, t, c);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // Paper geometry, where the bar runs 4 times a row.
  for (int t : {0, 1, 2, 3}) {
    for (int c : {0, 1, 2}) {
      expect_closed_form(DownscalerConfig::paper().frame_shape(), t, c);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Fills poisoned buffers of shape `s` in place for every frame and
/// channel in 0..5, and checks each against the closed form.
::testing::AssertionResult fills_every_pixel(const Shape& s) {
  for (int t = 0; t <= 5; ++t) {
    for (int c = 0; c <= 5; ++c) {
      std::vector<std::int64_t> frame(static_cast<std::size_t>(s.elements()), kPoison);
      synthetic_channel(frame, s, t, c);
      ::testing::AssertionResult match = rows_match(frame, s, t, c, 0, s[0]);
      if (!match) return match;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(FramesTest, InPlaceFillWritesEveryPixelOfAPoisonedBuffer) {
  // w < 4: a bar period of 1, so every pixel is on the bar.
  for (const Shape& s : {Shape{5, 1}, Shape{4, 3}}) EXPECT_TRUE(fills_every_pixel(s));
  // w < 32: periods 1..7, so the bar runs of min(8, period) pixels tile
  // the row (runs of 8 would overlap); w = 32 is period 8.
  for (const Shape& s : {Shape{7, 4}, Shape{9, 12}, Shape{20, 31}, Shape{17, 32}}) {
    EXPECT_TRUE(fills_every_pixel(s));
  }
  // h not a multiple of 16: the last block row is cut short.
  for (const Shape& s : {Shape{18, 32}, Shape{33, 65}, Shape{47, 100}}) {
    EXPECT_TRUE(fills_every_pixel(s));
  }
  // Spot rows at paper geometry, filled on a pool in blocks of 35 rows:
  // block row edges (15/16), fill block edges (34/35, 1049/1050) and
  // the last row.
  const Shape paper = DownscalerConfig::paper().frame_shape();
  gpu::ThreadPool pool(3);
  std::vector<std::int64_t> frame(static_cast<std::size_t>(paper.elements()), kPoison);
  for (int t : {0, 5}) {
    for (int c : {0, 2}) {
      synthetic_channel(frame, paper, t, c, &pool);
      for (std::int64_t y : {0, 15, 16, 34, 35, 539, 1049, 1050, 1079}) {
        ASSERT_TRUE(rows_match(frame, paper, t, c, y, y + 1));
      }
    }
  }
}

TEST(FramesTest, PoolSplitFillsMatchTheSerialFill) {
  // Paper geometry splits into 31 blocks of rows, 1000x600 into 10, and
  // 9 rows wider than a block into one block per row.
  const Shape shapes[] = {DownscalerConfig::paper().frame_shape(), Shape{1000, 600},
                          Shape{9, 70000}};
  for (const Shape& s : shapes) {
    std::vector<std::int64_t> serial(static_cast<std::size_t>(s.elements()), kPoison);
    synthetic_channel(serial, s, 3, 1);
    for (unsigned workers = 1; workers <= 4; ++workers) {
      gpu::ThreadPool pool(workers);
      std::vector<std::int64_t> split(serial.size(), kPoison);
      synthetic_channel(split, s, 3, 1, &pool);
      EXPECT_TRUE(split == serial) << s.to_string() << " on " << workers << " workers";
    }
  }
  std::vector<std::int64_t> wrong_size(10);
  EXPECT_THROW(synthetic_channel(wrong_size, Shape{3, 4}, 0, 0), Error);
  EXPECT_THROW(synthetic_channel(wrong_size, Shape{10}, 0, 0), Error);
}

struct TinyFixture {
  DownscalerConfig cfg = DownscalerConfig::tiny();
  SacDownscaler::Options ng_opts;
  SacDownscaler::Options g_opts;
  TinyFixture() {
    ng_opts.workers = 1;
    g_opts.generic = true;
    g_opts.workers = 1;
  }
};

TEST(CrossSystemTest, SacCudaSeqAndGaspardAgree) {
  // The central correctness claim: all five implementations compute the
  // same frames.
  TinyFixture f;
  SacDownscaler ng(f.cfg, f.ng_opts);
  SacDownscaler g(f.cfg, f.g_opts);

  auto cuda_ng = ng.run_cuda_chain(1, 1, 1);
  auto cuda_g = g.run_cuda_chain(1, 1, 1);
  auto seq_ng = ng.run_seq(ng.filter_programs(), 1, true);
  auto seq_g = g.run_seq(g.filter_programs(), 1, true);

  GaspardDownscaler::Options gopts;
  gopts.rgb = false;
  gopts.workers = 1;
  GaspardDownscaler gd(f.cfg, gopts);
  auto gaspard = gd.run(1, 1);

  ASSERT_EQ(cuda_ng.last_output.shape(), f.cfg.out_shape());
  EXPECT_EQ(cuda_ng.last_output, cuda_g.last_output);
  EXPECT_EQ(cuda_ng.last_output, seq_ng.last_output);
  EXPECT_EQ(cuda_ng.last_output, seq_g.last_output);
  EXPECT_EQ(cuda_ng.last_output, gaspard.last_output);
}

TEST(SacPipelineTest, ChainTransferCountsMatchPaperScheme) {
  TinyFixture f;
  SacDownscaler ng(f.cfg, f.ng_opts);
  auto r = ng.run_cuda_chain(5, 3, 1);
  // Per frame and channel: exactly one frame upload (attributed to H)
  // and one result download (attributed to V) — the paper's 900 + 900
  // over 300 RGB frames.
  EXPECT_EQ(r.h.h2d_calls, 15);
  EXPECT_EQ(r.h.d2h_calls, 0);
  EXPECT_EQ(r.v.h2d_calls, 0);
  EXPECT_EQ(r.v.d2h_calls, 15);
  // Kernel launches: kernels-per-filter x 15.
  EXPECT_EQ(r.h.kernel_launches, ng.h_kernels() * 15);
  EXPECT_EQ(r.v.kernel_launches, ng.v_kernels() * 15);
  const std::string table = ng.nvprof_table(r);
  EXPECT_NE(table.find("H. Filter ("), std::string::npos);
  EXPECT_NE(table.find("memcpyHtoDasync"), std::string::npos);

  // The generic tilers run on the host: each filter fetches its
  // operands in-line, and V's kernels need H's host-written result back
  // on the device, so the chain program uploads it — two uploads per
  // frame and channel. The fetches are those of the two filters run
  // separately.
  SacDownscaler g(f.cfg, f.g_opts);
  auto rg = g.run_cuda_chain(5, 3, 1);
  EXPECT_EQ(rg.h.h2d_calls, 30);
  EXPECT_EQ(rg.v.h2d_calls, 0);
  EXPECT_EQ(rg.h.d2h_calls, 0);
  auto filters = g.filter_programs();
  const auto gh = g.run_cuda_filter(filters.h, 1, false);
  const auto gv = g.run_cuda_filter(filters.v, 1, false);
  EXPECT_GT(gh.ops.d2h_calls, 0);
  EXPECT_EQ(rg.v.d2h_calls, 15 * (gh.ops.d2h_calls + gv.ops.d2h_calls));
  EXPECT_EQ(rg.h.kernel_launches, g.h_kernels() * 15);
  EXPECT_EQ(rg.v.kernel_launches, g.v_kernels() * 15);
  EXPECT_GT(rg.h.host_us, 0.0);
  EXPECT_GT(rg.v.host_us, 0.0);
}

TEST(SacPipelineTest, ChainProgramMatchesSequentialFilters) {
  // The composed program against the separately compiled filters on the
  // sequential host model, for both tilers, with WLF on and off. The
  // interpreter takes seconds at small geometry, so each geometry has
  // one sequential reference (the output depends on neither switch).
  for (const DownscalerConfig& cfg : {DownscalerConfig::tiny(), DownscalerConfig::small()}) {
    SacDownscaler::Options ref_opts;
    ref_opts.workers = 1;
    SacDownscaler ref(cfg, ref_opts);
    const IntArray expected = ref.run_seq(ref.filter_programs(), 1, true).last_output;
    ASSERT_EQ(expected.shape(), cfg.out_shape());
    for (bool generic : {false, true}) {
      for (bool wlf : {true, false}) {
        SacDownscaler::Options opts = ref_opts;
        opts.generic = generic;
        opts.enable_wlf = wlf;
        SacDownscaler sd(cfg, opts);
        EXPECT_EQ(sd.run_cuda_chain(1, 1, 1).last_output, expected)
            << cfg.frame_shape().to_string() << " generic=" << generic << " wlf=" << wlf;
      }
    }
  }
}

TEST(SacPipelineTest, KernelCountsShowWlfSplitting) {
  TinyFixture f;
  SacDownscaler ng(f.cfg, f.ng_opts);
  // Non-generic H: the 3 output-tile generators plus boundary splits.
  EXPECT_GE(ng.h_kernels(), 3);
  // V: 4 output-tile generators plus splits.
  EXPECT_GE(ng.v_kernels(), 4);
  // And more kernels than GASPARD2's single kernel per filter — the
  // paper's Section VIII-C observation.
  EXPECT_GT(ng.h_kernels(), 1);
  EXPECT_GT(ng.v_kernels(), 1);
}

TEST(SacPipelineTest, GenericHasHostBlocksAndNonGenericDoesNot) {
  TinyFixture f;
  SacDownscaler ng(f.cfg, f.ng_opts);
  SacDownscaler g(f.cfg, f.g_opts);
  EXPECT_EQ(ng.program().host_block_count(), 0);
  // One host block per filter, each tagged with its filter, and each a
  // loop nest the plan compiled.
  ASSERT_EQ(g.program().host_block_count(), 2);
  EXPECT_EQ(g.program().compiled_host_block_count(), 2);
  std::vector<std::string> origins;
  for (const auto& step : g.program().steps()) {
    if (step.kind == sac_cuda::Step::Kind::Host) origins.push_back(step.origin);
  }
  EXPECT_EQ(origins, (std::vector<std::string>{"hfilter_generic", "vfilter_generic"}));
}

TEST(SacPipelineTest, GenericSlowerThanNonGenericAtScale) {
  // Figure 9's headline GPU effect needs a realistic frame size (at
  // tiny scale launch overhead dominates and the ordering flips).
  DownscalerConfig cfg = DownscalerConfig::small();
  SacDownscaler::Options ng_opts;
  SacDownscaler::Options g_opts;
  g_opts.generic = true;
  SacDownscaler ng(cfg, ng_opts);
  SacDownscaler g(cfg, g_opts);
  auto ng_filters = ng.filter_programs();
  auto g_filters = g.filter_programs();
  auto rng = ng.run_cuda_filter(ng_filters.h, 10, true);
  auto rg = g.run_cuda_filter(g_filters.h, 10, true);
  EXPECT_GT(rg.ops.total_us(), rng.ops.total_us());
  // The generic variant pays host tiler time; the non-generic none.
  EXPECT_GT(rg.ops.host_us, 0.0);
  EXPECT_DOUBLE_EQ(rng.ops.host_us, 0.0);
  // Results agree.
  EXPECT_EQ(rng.last_output, rg.last_output);
}

TEST(SacPipelineTest, SeqTimesInsensitiveToGenericity) {
  TinyFixture f;
  SacDownscaler ng(f.cfg, f.ng_opts);
  SacDownscaler g(f.cfg, f.g_opts);
  auto sng = ng.run_seq(ng.filter_programs(), 300, false);
  auto sg = g.run_seq(g.filter_programs(), 300, false);
  const double rel =
      std::abs(sng.total_us() - sg.total_us()) / std::max(sng.total_us(), sg.total_us());
  EXPECT_LT(rel, 0.5);  // "do not vary significantly" (Figure 9)
}

TEST(SacPipelineTest, CudaMuchFasterThanSeqAtScale) {
  DownscalerConfig cfg = DownscalerConfig::small();
  SacDownscaler::Options opts;
  SacDownscaler ng(cfg, opts);
  auto filters = ng.filter_programs();
  auto cuda = ng.run_cuda_filter(filters.h, 300, true);
  auto seq = ng.run_seq(filters, 300, false);
  EXPECT_GT(seq.h_us / cuda.ops.total_us(), 2.0);
  // One run over device-resident data: 300x the kernels, one upload of
  // the frame and one fetch of the result.
  EXPECT_EQ(cuda.ops.kernel_launches, std::int64_t{300} * cuda.kernels);
  EXPECT_EQ(cuda.ops.h2d_calls, 1);
  EXPECT_EQ(cuda.ops.d2h_calls, 1);
  // The first iteration executed.
  const auto once = ng.run_cuda_filter(filters.h, 1, true);
  EXPECT_EQ(cuda.last_output, once.last_output);
  EXPECT_EQ(once.ops.kernel_launches, cuda.kernels);
}

TEST(GaspardPipelineTest, TableOneCountsAtTinyScale) {
  TinyFixture f;
  GaspardDownscaler::Options gopts;
  GaspardDownscaler gd(f.cfg, gopts);
  auto r = gd.run(10, 1);
  EXPECT_EQ(r.h.kernel_launches, 30);  // 3 channels x 10 frames
  EXPECT_EQ(r.v.kernel_launches, 30);
  EXPECT_EQ(r.h.h2d_calls, 30);
  EXPECT_EQ(r.v.d2h_calls, 30);
  const std::string table = gd.nvprof_table(r);
  EXPECT_NE(table.find("H. Filter (3 kernels)"), std::string::npos);
  EXPECT_NE(table.find("V. Filter (3 kernels)"), std::string::npos);
}

TEST(WlfAblationTest, DisablingWlfAddsKernelGroupsAndTime) {
  DownscalerConfig cfg = DownscalerConfig::small();
  SacDownscaler::Options wlf_on;
  SacDownscaler::Options wlf_off;
  wlf_off.enable_wlf = false;
  SacDownscaler on(cfg, wlf_on);
  SacDownscaler off(cfg, wlf_off);
  // Without WLF each pipeline stage keeps its own with-loop.
  EXPECT_GT(off.h_kernels(), 0);
  auto on_filters = on.filter_programs();
  auto off_filters = off.filter_programs();
  auto r_on = on.run_cuda_filter(on_filters.h, 20, true);
  auto r_off = off.run_cuda_filter(off_filters.h, 20, true);
  // Unfused: intermediate arrays cost extra kernel traffic.
  EXPECT_GT(r_off.ops.kernel_us, r_on.ops.kernel_us);
  EXPECT_EQ(r_on.last_output, r_off.last_output);
}

TEST(AsyncStreamsTest, SacAsyncChainIsBitExact) {
  TinyFixture f;
  SacDownscaler sync_ds(f.cfg, f.ng_opts);
  SacDownscaler::Options async_opts = f.ng_opts;
  async_opts.async_streams = true;
  SacDownscaler async_ds(f.cfg, async_opts);

  auto sync_r = sync_ds.run_cuda_chain(4, 3, 4);
  gpu::VirtualGpu gpu(async_opts.device, async_opts.workers);
  auto async_r = async_ds.run_cuda_chain_on(gpu, 4, 3, 4);
  EXPECT_EQ(async_r.last_output, sync_r.last_output);
  // The same operations run; only their placement on streams changes.
  EXPECT_EQ(async_r.h.kernel_launches, sync_r.h.kernel_launches);
  EXPECT_EQ(async_r.h.h2d_calls, sync_r.h.h2d_calls);
  EXPECT_EQ(async_r.v.d2h_calls, sync_r.v.d2h_calls);
  EXPECT_NEAR(async_r.total_us(), sync_r.total_us(), 1e-6 * sync_r.total_us() + 1e-6);
  // Overlap strictly shrinks the wall clock.
  EXPECT_LT(async_r.wall_us, sync_r.wall_us);
  EXPECT_NE(gpu.profiler().timeline().find("stream"), std::string::npos);
}

TEST(AsyncStreamsTest, SacGenericAsyncChainIsBitExact) {
  TinyFixture f;
  SacDownscaler sync_ds(f.cfg, f.g_opts);
  SacDownscaler::Options async_opts = f.g_opts;
  async_opts.async_streams = true;
  SacDownscaler async_ds(f.cfg, async_opts);

  auto sync_r = sync_ds.run_cuda_chain(4, 3, 4);
  auto async_r = async_ds.run_cuda_chain(4, 3, 4);
  EXPECT_EQ(async_r.last_output, sync_r.last_output);
  // Host tiler time is on the host timeline (async) vs host profiler
  // (sync) — the breakdown totals agree either way.
  EXPECT_NEAR(async_r.total_us(), sync_r.total_us(), 1e-6 * sync_r.total_us() + 1e-6);
  EXPECT_GT(async_r.h.host_us, 0.0);
  EXPECT_LT(async_r.wall_us, sync_r.wall_us);
}

TEST(AsyncStreamsTest, GaspardAsyncPipelineIsBitExact) {
  TinyFixture f;
  GaspardDownscaler::Options sync_opts;
  sync_opts.workers = 1;
  GaspardDownscaler::Options async_opts = sync_opts;
  async_opts.async_streams = true;
  GaspardDownscaler sync_ds(f.cfg, sync_opts);
  GaspardDownscaler async_ds(f.cfg, async_opts);

  auto sync_r = sync_ds.run(6, 6);
  auto async_r = async_ds.run(6, 6);
  EXPECT_EQ(async_r.last_output, sync_r.last_output);
  EXPECT_EQ(async_r.h.kernel_launches, sync_r.h.kernel_launches);
  EXPECT_NEAR(async_r.total_us(), sync_r.total_us(), 1e-6 * sync_r.total_us() + 1e-6);
  EXPECT_LT(async_r.wall_us, sync_r.wall_us);
}

TEST(AsyncStreamsTest, AsyncHidesTransfersButSyncDoesNot) {
  DownscalerConfig cfg = DownscalerConfig::small();
  SacDownscaler::Options sync_opts;
  SacDownscaler::Options async_opts;
  async_opts.async_streams = true;
  SacDownscaler sync_ds(cfg, sync_opts);
  SacDownscaler async_ds(cfg, async_opts);

  auto sync_r = sync_ds.run_cuda_chain(8, 3, 1);
  gpu::VirtualGpu gpu(async_opts.device, async_opts.workers);
  auto async_r = async_ds.run_cuda_chain_on(gpu, 8, 3, 1);
  EXPECT_DOUBLE_EQ(sync_r.wall_us, sync_r.total_us());  // fully serial
  EXPECT_LT(async_r.wall_us, 0.95 * sync_r.wall_us);
  EXPECT_NE(gpu.profiler().timeline().find("hidden behind kernels"), std::string::npos);
  // The Chrome trace export carries one event per op on its stream.
  const std::string trace = obs::merged_chrome_trace({obs::DeviceTrace::of(0, gpu.profiler())}, {});
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("memcpy_h2d"), std::string::npos);
}

TEST(PpmTest, WritesValidHeader) {
  const Shape s{8, 12};
  RgbFrame f = synthetic_frame(s, 0);
  const std::string path = "/tmp/saclo_test_frame.ppm";
  write_ppm(path, f);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P6");
  int w = 0;
  int h = 0;
  in >> w >> h;
  EXPECT_EQ(w, 12);
  EXPECT_EQ(h, 8);
}

}  // namespace
}  // namespace saclo::apps
