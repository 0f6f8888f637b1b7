// The paper's running example on the SaC route: H.263 downscaling of
// synthetic RGB video, compiled from the generated mini-SaC module and
// executed on the simulated GPU in all four Figure 9 variants.
//
//   $ ./example_downscaler_sac [out.ppm]
//
// Writes the downscaled first frame as a PPM image (the
// FrameConstructor stand-in), prints per-variant timings at a reduced
// frame size, and the full Table II reproduction is in
// bench_table2_sac.

#include <cstdio>
#include <utility>
#include <vector>

#include "apps/downscaler/frames.hpp"
#include "apps/downscaler/pipelines.hpp"

using namespace saclo;
using namespace saclo::apps;

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "downscaled_sac.ppm";
  const DownscalerConfig cfg = DownscalerConfig::small();
  std::printf("downscaler: %lldx%lld -> %lldx%lld (H: %lld->%lld per %lld, V: %lld->%lld)\n\n",
              static_cast<long long>(cfg.height), static_cast<long long>(cfg.width),
              static_cast<long long>(cfg.out_height()), static_cast<long long>(cfg.mid_width()),
              static_cast<long long>(cfg.h.in_pattern), static_cast<long long>(cfg.h.tile()),
              static_cast<long long>(cfg.h.paving), static_cast<long long>(cfg.v.in_pattern),
              static_cast<long long>(cfg.v.tile()));

  SacDownscaler::Options ng_opts;
  SacDownscaler::Options g_opts;
  g_opts.generic = true;
  SacDownscaler nongeneric(cfg, ng_opts);
  SacDownscaler generic(cfg, g_opts);

  std::printf("kernels per filter invocation (non-generic): H=%d V=%d\n",
              nongeneric.h_kernels(), nongeneric.v_kernels());
  std::printf("host-executed blocks (generic H filter): %d — the for-loop output tiler\n\n",
              generic.h_program().host_block_count());

  const int frames = 30;
  auto seq_ng = nongeneric.run_seq(frames, 1);
  auto seq_g = generic.run_seq(frames, 0);
  auto cuda_ng_h = nongeneric.run_cuda_filter(true, frames, 1);
  auto cuda_ng_v = nongeneric.run_cuda_filter(false, frames, 1);
  auto cuda_g_h = generic.run_cuda_filter(true, frames, 1);
  auto cuda_g_v = generic.run_cuda_filter(false, frames, 1);

  std::printf("simulated filter times, %d iterations (H / V):\n", frames);
  std::printf("  SAC-Seq  Non-Generic : %8.1f ms / %8.1f ms\n", seq_ng.h_us / 1e3,
              seq_ng.v_us / 1e3);
  std::printf("  SAC-Seq  Generic     : %8.1f ms / %8.1f ms\n", seq_g.h_us / 1e3,
              seq_g.v_us / 1e3);
  std::printf("  SAC-CUDA Non-Generic : %8.1f ms / %8.1f ms\n",
              cuda_ng_h.ops.total_us() / 1e3, cuda_ng_v.ops.total_us() / 1e3);
  std::printf("  SAC-CUDA Generic     : %8.1f ms / %8.1f ms  (d2h %.1f ms + host tiler %.1f ms)\n",
              cuda_g_h.ops.total_us() / 1e3, cuda_g_v.ops.total_us() / 1e3,
              cuda_g_h.ops.d2h_us / 1e3, cuda_g_h.ops.host_us / 1e3);

  // Full RGB chain for one frame, writing the result image.
  auto chain = nongeneric.run_cuda_chain(1, 3, 1);
  std::printf("\nper-frame RGB chain profile:\n%s\n", nongeneric.nvprof_table(chain).c_str());

  // Reassemble the channels for the PPM (re-run per channel).
  gpu::VirtualGpu device(gpu::gtx480());
  gpu::cuda::Runtime rt(device);
  gpu::Profiler host_profiler;
  RgbFrame out;
  IntArray* channels[3] = {&out.r, &out.g, &out.b};
  for (int ch = 0; ch < 3; ++ch) {
    // Move the frames in and out: a braced argument list would copy them.
    std::vector<sac::Value> h_args(1);
    h_args[0] = synthetic_channel(cfg.frame_shape(), 0, ch);
    std::vector<sac::Value> v_args(1);
    v_args[0] = const_cast<sac_cuda::CudaProgram&>(nongeneric.h_program())
                    .run(rt, std::move(h_args), gpu::i7_930(), host_profiler, true);
    sac::Value res = const_cast<sac_cuda::CudaProgram&>(nongeneric.v_program())
                         .run(rt, std::move(v_args), gpu::i7_930(), host_profiler, true);
    *channels[ch] = std::move(res.ints());
  }
  write_ppm(out_path, out);
  std::printf("wrote %s (%lldx%lld)\n", out_path.c_str(),
              static_cast<long long>(out.r.shape()[1]),
              static_cast<long long>(out.r.shape()[0]));
  return 0;
}
