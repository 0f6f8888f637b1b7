// Reproduces the paper's Figure 9: execution times of the horizontal
// and vertical filters, 300 iterations each, for the four SaC
// implementations — SAC-Seq Generic, SAC-Seq Non-Generic,
// SAC-CUDA Generic, SAC-CUDA Non-Generic.
//
// The CUDA bars follow the paper's benchmark-loop methodology: the
// input is uploaded once and the filter iterates over device-resident
// data. The generic variants pay a device->host copy of the
// intermediate array plus a host-side for-loop scatter on EVERY
// iteration — the 4.5x / 3x slowdowns the paper reports.

#include <benchmark/benchmark.h>

#include "bench_support.hpp"

using namespace saclo;
using namespace saclo::apps;
using namespace saclo::bench;

namespace {

void reproduce_fig9() {
  print_header("Figure 9 — filter execution times of the SaC implementations (300 iterations)");
  const DownscalerConfig cfg = DownscalerConfig::paper();
  SacDownscaler::Options ng_opts;
  SacDownscaler::Options g_opts;
  g_opts.generic = true;
  SacDownscaler ng(cfg, ng_opts);
  SacDownscaler g(cfg, g_opts);
  auto ng_filters = ng.filter_programs();
  auto g_filters = g.filter_programs();

  auto seq_ng = ng.run_seq(ng_filters, kFrames, false);
  auto seq_g = g.run_seq(g_filters, kFrames, false);
  auto cuda_ng_h = ng.run_cuda_filter(ng_filters.h, kFrames, false);
  auto cuda_ng_v = ng.run_cuda_filter(ng_filters.v, kFrames, false);
  auto cuda_g_h = g.run_cuda_filter(g_filters.h, kFrames, false);
  auto cuda_g_v = g.run_cuda_filter(g_filters.v, kFrames, false);

  std::printf("%-26s %16s %16s\n", "", "Horizontal", "Vertical");
  auto bar = [](const char* label, double h_us, double v_us) {
    std::printf("%-26s %13.2f s  %13.2f s\n", label, h_us / 1e6, v_us / 1e6);
  };
  bar("SAC-Seq Generic", seq_g.h_us, seq_g.v_us);
  bar("SAC-Seq Non-Generic", seq_ng.h_us, seq_ng.v_us);
  bar("SAC-CUDA Generic", cuda_g_h.ops.total_us(), cuda_g_v.ops.total_us());
  bar("SAC-CUDA Non-Generic", cuda_ng_h.ops.total_us(), cuda_ng_v.ops.total_us());

  std::printf("\nHeadline shape checks:\n");
  std::printf("  generic/non-generic on GPU (H): %.2fx   (paper: 4.5x)\n",
              cuda_g_h.ops.total_us() / cuda_ng_h.ops.total_us());
  std::printf("  generic/non-generic on GPU (V): %.2fx   (paper: 3x)\n",
              cuda_g_v.ops.total_us() / cuda_ng_v.ops.total_us());
  std::printf("  seq / CUDA non-generic (H):     %.2fx   (paper conclusion: up to ~11x)\n",
              seq_ng.h_us / cuda_ng_h.ops.total_us());
  std::printf("  seq / CUDA non-generic (V):     %.2fx\n",
              seq_ng.v_us / cuda_ng_v.ops.total_us());
  std::printf("  seq generic vs non-generic (H): %.2fx   (paper: ~1x, see EXPERIMENTS.md)\n",
              seq_g.h_us / seq_ng.h_us);
  std::printf("\nGeneric CUDA breakdown (H): kernels %.2fs, d2h %.2fs, host tiler %.2fs\n",
              cuda_g_h.ops.kernel_us / 1e6, cuda_g_h.ops.d2h_us / 1e6,
              cuda_g_h.ops.host_us / 1e6);

  BenchJson out("fig9_sac_filters");
  out.variant("seq_generic_h", seq_g.h_us);
  out.variant("seq_generic_v", seq_g.v_us);
  out.variant("seq_nongeneric_h", seq_ng.h_us);
  out.variant("seq_nongeneric_v", seq_ng.v_us);
  out.variant("cuda_generic_h", cuda_g_h.ops.total_us());
  out.variant("cuda_generic_v", cuda_g_v.ops.total_us());
  out.variant("cuda_nongeneric_h", cuda_ng_h.ops.total_us());
  out.variant("cuda_nongeneric_v", cuda_ng_v.ops.total_us());
  out.scalar("gpu_generic_penalty_h", cuda_g_h.ops.total_us() / cuda_ng_h.ops.total_us());
  out.scalar("gpu_generic_penalty_v", cuda_g_v.ops.total_us() / cuda_ng_v.ops.total_us());
  out.scalar("seq_over_cuda_h", seq_ng.h_us / cuda_ng_h.ops.total_us());
  out.scalar("seq_over_cuda_v", seq_ng.v_us / cuda_ng_v.ops.total_us());
  out.write();
}

void BM_Fig9SimulatedIterationNonGeneric(benchmark::State& state) {
  const DownscalerConfig cfg = DownscalerConfig::paper();
  SacDownscaler::Options opts;
  SacDownscaler sac(cfg, opts);
  auto filters = sac.filter_programs();
  for (auto _ : state) {
    auto r = sac.run_cuda_filter(filters.h, 1, false);
    benchmark::DoNotOptimize(r.ops.total_us());
  }
}
BENCHMARK(BM_Fig9SimulatedIterationNonGeneric);

void BM_Fig9SequentialEstimate(benchmark::State& state) {
  const DownscalerConfig cfg = DownscalerConfig::paper();
  SacDownscaler::Options opts;
  SacDownscaler sac(cfg, opts);
  const auto filters = sac.filter_programs();
  for (auto _ : state) {
    auto r = sac.run_seq(filters, 1, false);
    benchmark::DoNotOptimize(r.total_us());
  }
}
BENCHMARK(BM_Fig9SequentialEstimate);

}  // namespace

int main(int argc, char** argv) {
  reproduce_fig9();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
