// Reproduces the paper's Table I: kernel execution and data transfer
// times of the GASPARD2 (ArrayOL -> OpenCL) downscaler, 300 RGB frames
// of 1080x1920 on the simulated GTX480.

#include <benchmark/benchmark.h>

#include "bench_support.hpp"

using namespace saclo;
using namespace saclo::apps;
using namespace saclo::bench;

namespace {

void reproduce_table1() {
  print_header("Table I — GASPARD2 kernel execution and data transfer times");
  const DownscalerConfig cfg = DownscalerConfig::paper();
  GaspardDownscaler::Options opts;
  GaspardDownscaler gd(cfg, opts);
  auto r = gd.run(kFrames, /*exec_frames=*/0);

  std::printf("%s\n", gd.nvprof_table(r).c_str());
  std::printf("Paper reference rows:\n");
  compare_row("H. Filter (3 kernels)", 844185, r.h.kernel_us);
  compare_row("V. Filter (3 kernels)", 424223, r.v.kernel_us);
  compare_row("memcpyHtoDasync", 1391670, r.h.h2d_us + r.v.h2d_us);
  compare_row("memcpyDtoHasync", 197057, r.h.d2h_us + r.v.d2h_us);
  compare_row("Total", 2.86e6, r.total_us());
  const double transfer_share =
      (r.h.h2d_us + r.v.h2d_us + r.h.d2h_us + r.v.d2h_us) / r.total_us();
  std::printf("\nTransfer share of total: %.1f%% (paper: ~55%%)\n", 100 * transfer_share);

  BenchJson out("table1_gaspard");
  out.variant("h_filter_kernels", r.h.kernel_us, {{"paper_us", 844185}});
  out.variant("v_filter_kernels", r.v.kernel_us, {{"paper_us", 424223}});
  out.variant("memcpyHtoDasync", r.h.h2d_us + r.v.h2d_us, {{"paper_us", 1391670}});
  out.variant("memcpyDtoHasync", r.h.d2h_us + r.v.d2h_us, {{"paper_us", 197057}});
  out.variant("total", r.total_us(), {{"paper_us", 2.86e6}});
  out.scalar("transfer_share", transfer_share);
  out.write();
}

void BM_GaspardChainBuild(benchmark::State& state) {
  const DownscalerConfig cfg = DownscalerConfig::paper();
  for (auto _ : state) {
    auto app = gaspard::OpenClApplication::build(build_downscaler_model(cfg));
    benchmark::DoNotOptimize(app.kernels().size());
  }
}
BENCHMARK(BM_GaspardChainBuild);

void BM_ModelValidatePaper(benchmark::State& state) {
  // The full single-assignment proof: every output tiler is checked to
  // be an exact partition, element by element.
  const aol::Model model = build_downscaler_model(DownscalerConfig::paper());
  for (auto _ : state) model.validate();
}
BENCHMARK(BM_ModelValidatePaper);

void BM_OptimizePaperO2(benchmark::State& state) {
  // The cost-gated rewrite search at O2: fusion with enabling paving
  // changes, then channel merges, each candidate fully verified.
  const aol::Model model = build_downscaler_model(DownscalerConfig::paper());
  opt::SearchOptions options;
  options.level = 2;
  for (auto _ : state) {
    auto r = opt::optimize(model, options);
    benchmark::DoNotOptimize(r.rewrites.size());
  }
}
BENCHMARK(BM_OptimizePaperO2);

void BM_GaspardSimulatedFrame(benchmark::State& state) {
  // Wall-clock cost of simulating one timing-only frame (the harness
  // overhead of the reproduction itself).
  const DownscalerConfig cfg = DownscalerConfig::paper();
  GaspardDownscaler::Options opts;
  GaspardDownscaler gd(cfg, opts);
  for (auto _ : state) {
    auto r = gd.run(1, 0);
    benchmark::DoNotOptimize(r.total_us());
  }
}
BENCHMARK(BM_GaspardSimulatedFrame);

void BM_GaspardFunctionalFrame(benchmark::State& state) {
  // Wall-clock cost of one functionally executed tiny frame.
  const DownscalerConfig cfg = DownscalerConfig::tiny();
  GaspardDownscaler::Options opts;
  GaspardDownscaler gd(cfg, opts);
  for (auto _ : state) {
    auto r = gd.run(1, 1);
    benchmark::DoNotOptimize(r.last_output.elements());
  }
}
BENCHMARK(BM_GaspardFunctionalFrame);

}  // namespace

int main(int argc, char** argv) {
  reproduce_table1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
