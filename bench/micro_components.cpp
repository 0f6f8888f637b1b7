// Micro-benchmarks (real wall time) of the library components that do
// run natively on this machine: tiler gather/scatter, the mini-SaC
// frontend and optimiser, the kernel tape VM, the functional executor,
// the ArrayOL reference evaluator, the executed paper-geometry kernels
// of both routes on the host backend, and the host side of an executed
// frame (synthetic source, converting upload).

#include <benchmark/benchmark.h>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/pipelines.hpp"
#include "bench_support.hpp"
#include "apps/downscaler/frames.hpp"
#include "apps/downscaler/sac_source.hpp"
#include "core/tiler.hpp"
#include "gpu/executor.hpp"
#include "gpu/sim_gpu.hpp"
#include "sac/interp.hpp"
#include "sac/parser.hpp"
#include "sac/pipeline.hpp"
#include "sac/typecheck.hpp"

using namespace saclo;
using namespace saclo::apps;

namespace {

void BM_TilerGather(benchmark::State& state) {
  const std::int64_t h = state.range(0);
  const IntArray frame =
      IntArray::generate(Shape{h, 1920}, [](const Index& i) { return i[0] + i[1]; });
  TilerSpec t;
  t.origin = {0, 0};
  t.fitting = IntMat{{0}, {1}};
  t.paving = IntMat{{1, 0}, {0, 8}};
  for (auto _ : state) {
    IntArray tiles = gather(frame, t, Shape{11}, Shape{h, 240});
    benchmark::DoNotOptimize(tiles.elements());
  }
  state.SetItemsProcessed(state.iterations() * h * 240 * 11);
}
BENCHMARK(BM_TilerGather)->Arg(16)->Arg(64)->Arg(270);

void BM_TilerScatter(benchmark::State& state) {
  const std::int64_t h = state.range(0);
  TilerSpec t;
  t.origin = {0, 0};
  t.fitting = IntMat{{0}, {1}};
  t.paving = IntMat{{1, 0}, {0, 3}};
  const IntArray tiles(Shape{h, 240, 3}, 7);
  IntArray out(Shape{h, 720});
  for (auto _ : state) {
    scatter(out, tiles, t, Shape{3}, Shape{h, 240});
    benchmark::DoNotOptimize(out.elements());
  }
  state.SetItemsProcessed(state.iterations() * h * 720);
}
BENCHMARK(BM_TilerScatter)->Arg(16)->Arg(270);

void BM_LexParseDownscaler(benchmark::State& state) {
  const std::string src = downscaler_sac_source(DownscalerConfig::paper());
  for (auto _ : state) {
    sac::Module m = sac::parse(src);
    benchmark::DoNotOptimize(m.functions.size());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_LexParseDownscaler);

void BM_Typecheck(benchmark::State& state) {
  const sac::Module m = sac::parse(downscaler_sac_source(DownscalerConfig::paper()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sac::typecheck(m));
  }
}
BENCHMARK(BM_Typecheck);

void BM_CompileWithWlf(benchmark::State& state) {
  const DownscalerConfig cfg = DownscalerConfig::paper();
  const sac::Module m = sac::parse(downscaler_sac_source(cfg));
  for (auto _ : state) {
    auto cf = sac::compile(m, "hfilter_nongeneric",
                           {sac::ArgSpec::array(sac::ElemType::Int, cfg.frame_shape())});
    benchmark::DoNotOptimize(cf.stats.folds);
  }
}
BENCHMARK(BM_CompileWithWlf);

void BM_InterpTinyFilter(benchmark::State& state) {
  const DownscalerConfig cfg = DownscalerConfig::tiny();
  const sac::Module m = sac::parse(downscaler_sac_source(cfg));
  const IntArray frame = synthetic_channel(cfg.frame_shape(), 0, 0);
  for (auto _ : state) {
    sac::Value v = sac::run_function(m, "hfilter_nongeneric", {sac::Value(frame)});
    benchmark::DoNotOptimize(v.shape().elements());
  }
}
BENCHMARK(BM_InterpTinyFilter);

void BM_ThreadPoolParallelFor(benchmark::State& state) {
  gpu::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  std::vector<std::int64_t> out(100000);
  for (auto _ : state) {
    pool.parallel_for(100000, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) out[static_cast<std::size_t>(i)] = i * i;
    });
    benchmark::DoNotOptimize(out[99999]);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(2)->Arg(4);

void BM_SimKernelFunctionalExec(benchmark::State& state) {
  gpu::VirtualGpu gpu(gpu::gtx480(), 1);
  const gpu::BufferHandle buf = gpu.alloc(100000 * 8);
  auto out = gpu.memory().view<std::int64_t>(buf);
  gpu::KernelLaunch k;
  k.name = "bench";
  k.threads = 100000;
  k.cost.flops_per_thread = 2;
  k.body = [out](std::int64_t begin, std::int64_t end) {
    for (std::int64_t tid = begin; tid < end; ++tid) {
      out[static_cast<std::size_t>(tid)] = 3 * tid + 1;
    }
  };
  for (auto _ : state) {
    gpu.launch(k, true);
    benchmark::DoNotOptimize(out[9]);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SimKernelFunctionalExec);

void BM_ArrayOlEvaluateTiny(benchmark::State& state) {
  const DownscalerConfig cfg = DownscalerConfig::tiny();
  aol::Model model = build_single_channel_model(cfg);
  std::map<std::string, IntArray> inputs{
      {"frame_y", synthetic_channel(cfg.frame_shape(), 0, 0)}};
  for (auto _ : state) {
    auto env = aol::evaluate(model, inputs);
    benchmark::DoNotOptimize(env.size());
  }
}
BENCHMARK(BM_ArrayOlEvaluateTiny);

void BM_CoverageMap(benchmark::State& state) {
  TilerSpec t;
  t.origin = {0, 0};
  t.fitting = IntMat{{0}, {1}};
  t.paving = IntMat{{1, 0}, {0, 8}};
  for (auto _ : state) {
    IntArray cover = coverage_map(t, Shape{64, 512}, Shape{11}, Shape{64, 64});
    benchmark::DoNotOptimize(cover.elements());
  }
}
BENCHMARK(BM_CoverageMap);

/// The synthetic source filling one paper-geometry pixel frame in place
/// on 1 and 3 workers: the generation half of an executed frame's host
/// side.
void BM_SyntheticChannel(benchmark::State& state) {
  const Shape shape = DownscalerConfig::paper().frame_shape();
  gpu::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  std::vector<std::int32_t> frame(static_cast<std::size_t>(shape.elements()));
  int t = 0;
  for (auto _ : state) {
    synthetic_channel(frame, shape, t++ % 16, 0, &pool);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * shape.elements());
}
BENCHMARK(BM_SyntheticChannel)->Arg(1)->Arg(3);

/// The upload of one paper-geometry pixel frame (a plain 4-byte copy)
/// on the host backend, 1 and 3 workers: the transfer half of an
/// executed frame's host side.
void BM_FrameUpload(benchmark::State& state) {
  gpu::VirtualGpu gpu(gpu::gtx480(), static_cast<unsigned>(state.range(0)),
                      gpu::BackendKind::Host);
  const PixelArray frame = synthetic_pixels(DownscalerConfig::paper().frame_shape(), 0, 0);
  const gpu::BufferHandle buf = gpu.alloc(frame.elements() * 4);
  gpu.upload_frame(buf, frame.data(), "memcpyHtoDasync");  // first touch
  for (auto _ : state) {
    gpu.upload_frame(buf, frame.data(), "memcpyHtoDasync");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * frame.elements());
}
BENCHMARK(BM_FrameUpload)->Arg(1)->Arg(3);

/// Host wall time of each named kernel recorded so far on `gpu`.
std::map<std::string, double> kernel_us(const gpu::VirtualGpu& gpu,
                                        const std::map<std::string, std::int64_t>& items) {
  std::map<std::string, double> us;
  for (const auto& row : gpu.profiler().rows()) {
    if (items.count(row.name) != 0) us[row.name] += row.total_us;
  }
  return us;
}

/// Times one executed paper-geometry frame per iteration on the host
/// backend with one worker, counting only the listed kernels; reports
/// their host nanoseconds per work item, in total (`ns_per_item`) and
/// per kernel (`ns_per_item.<kernel>`).
template <typename RunFrame>
void time_paper_kernels(benchmark::State& state, const std::map<std::string, std::int64_t>& items,
                        RunFrame&& run_frame) {
  gpu::VirtualGpu gpu(gpu::gtx480(), 1, gpu::BackendKind::Host);
  run_frame(gpu);  // first-touch allocations
  std::int64_t per_frame = 0;
  for (const auto& [name, n] : items) per_frame += n;
  std::map<std::string, double> total_us;
  for (auto _ : state) {
    std::map<std::string, double> us = kernel_us(gpu, items);
    run_frame(gpu);
    double frame_us = 0;
    for (const auto& [name, after] : kernel_us(gpu, items)) {
      const double spent = after - us[name];
      total_us[name] += spent;
      frame_us += spent;
    }
    state.SetIterationTime(frame_us / 1e6);
  }
  const auto frames = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * per_frame);
  double all_us = 0;
  for (const auto& [name, n] : items) {
    all_us += total_us[name];
    state.counters["ns_per_item." + name] =
        total_us[name] * 1000.0 / (frames * static_cast<double>(n));
  }
  state.counters["ns_per_item"] = all_us * 1000.0 / (frames * static_cast<double>(per_frame));
}

/// The non-generic SaC H and V generator kernels on one channel.
void BM_SacPaperKernel(benchmark::State& state) {
  SacDownscaler::Options opts;
  opts.backend = gpu::BackendKind::Host;
  SacDownscaler sd(DownscalerConfig::paper(), opts);
  std::map<std::string, std::int64_t> items;
  for (const auto& step : sd.program().steps()) {
    for (const auto& k : step.group.kernels) items[k.name] = k.threads;
  }
  time_paper_kernels(state, items, [&](gpu::VirtualGpu& gpu) {
    sd.run_cuda_chain_on(gpu, /*frames=*/1, /*channels=*/1, /*exec_frames=*/1);
  });
}
BENCHMARK(BM_SacPaperKernel)->UseManualTime()->Unit(benchmark::kMillisecond);

/// The GASPARD task kernels of the RGB downscaler at opt level 0 (six
/// kernels), 1 and 2 (one fused kernel).
void BM_GaspardPaperKernel(benchmark::State& state) {
  GaspardDownscaler::Options opts;
  opts.backend = gpu::BackendKind::Host;
  opts.opt_level = static_cast<int>(state.range(0));
  GaspardDownscaler gd(DownscalerConfig::paper(), opts);
  std::map<std::string, std::int64_t> items;
  for (const auto& k : gd.application().kernels()) items[k.name] = k.work_items;
  time_paper_kernels(state, items, [&](gpu::VirtualGpu& gpu) {
    gd.run_on(gpu, /*frames=*/1, /*exec_frames=*/1);
  });
}
BENCHMARK(BM_GaspardPaperKernel)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // These are real wall-clock micro-benchmarks, so the JSON's "us" is
  // host time per iteration (not simulated device time).
  saclo::bench::BenchJson out("micro_components");
  saclo::bench::JsonCapturingReporter reporter(out);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  out.write();
  return 0;
}
