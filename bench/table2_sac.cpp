// Reproduces the paper's Table II: kernel execution and data transfer
// times of the SaC -> CUDA downscaler (non-generic tilers, WLF on),
// 300 RGB frames of 1080x1920 on the simulated GTX480.

#include <benchmark/benchmark.h>

#include "bench_support.hpp"

using namespace saclo;
using namespace saclo::apps;
using namespace saclo::bench;

namespace {

void reproduce_table2() {
  print_header("Table II — SaC kernel execution and data transfer times");
  const DownscalerConfig cfg = DownscalerConfig::paper();
  SacDownscaler::Options opts;
  SacDownscaler sac(cfg, opts);
  std::printf("Post-WLF kernels per filter: H=%d (paper: 5), V=%d (paper: 7)\n",
              sac.h_kernels(), sac.v_kernels());
  std::printf("(split counts depend on how many filter windows cross the frame edge;\n");
  std::printf(" see EXPERIMENTS.md)\n\n");
  auto r = sac.run_cuda_chain(kFrames, kChannels, /*exec_frames=*/0);

  std::printf("%s\n", sac.nvprof_table(r).c_str());
  std::printf("Paper reference rows:\n");
  compare_row("H. Filter (5 kernels)", 1015137, r.h.kernel_us);
  compare_row("V. Filter (7 kernels)", 762270, r.v.kernel_us);
  compare_row("memcpyHtoDasync", 1454400, r.h.h2d_us + r.v.h2d_us);
  compare_row("memcpyDtoHasync", 198000, r.h.d2h_us + r.v.d2h_us);
  compare_row("Total", 3.43e6, r.total_us());
  const double transfer_share =
      (r.h.h2d_us + r.v.h2d_us + r.h.d2h_us + r.v.d2h_us) / r.total_us();
  std::printf("\nTransfer share of total: %.1f%% (paper: ~48%%)\n", 100 * transfer_share);

  BenchJson out("table2_sac");
  out.variant("h_filter_kernels", r.h.kernel_us, {{"paper_us", 1015137}});
  out.variant("v_filter_kernels", r.v.kernel_us, {{"paper_us", 762270}});
  out.variant("memcpyHtoDasync", r.h.h2d_us + r.v.h2d_us, {{"paper_us", 1454400}});
  out.variant("memcpyDtoHasync", r.h.d2h_us + r.v.d2h_us, {{"paper_us", 198000}});
  out.variant("total", r.total_us(), {{"paper_us", 3.43e6}});
  out.scalar("transfer_share", transfer_share);
  out.scalar("h_kernels", sac.h_kernels());
  out.scalar("v_kernels", sac.v_kernels());
  out.write();
}

void BM_SacCompileNonGeneric(benchmark::State& state) {
  // Frontend cost: parse + typecheck + specialise + WLF of the whole
  // downscaler module for the paper geometry.
  const DownscalerConfig cfg = DownscalerConfig::paper();
  for (auto _ : state) {
    SacDownscaler::Options opts;
    SacDownscaler sac(cfg, opts);
    benchmark::DoNotOptimize(sac.h_kernels());
  }
}
BENCHMARK(BM_SacCompileNonGeneric);

void BM_SacSimulatedFrame(benchmark::State& state) {
  const DownscalerConfig cfg = DownscalerConfig::paper();
  SacDownscaler::Options opts;
  SacDownscaler sac(cfg, opts);
  for (auto _ : state) {
    auto r = sac.run_cuda_chain(1, 3, 0);
    benchmark::DoNotOptimize(r.total_us());
  }
}
BENCHMARK(BM_SacSimulatedFrame);

void BM_SacFunctionalFrameTiny(benchmark::State& state) {
  const DownscalerConfig cfg = DownscalerConfig::tiny();
  SacDownscaler::Options opts;
  SacDownscaler sac(cfg, opts);
  for (auto _ : state) {
    auto r = sac.run_cuda_chain(1, 1, 1);
    benchmark::DoNotOptimize(r.last_output.elements());
  }
}
BENCHMARK(BM_SacFunctionalFrameTiny);

}  // namespace

int main(int argc, char** argv) {
  reproduce_table2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
