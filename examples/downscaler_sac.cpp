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
  std::printf("host-executed blocks (generic H and V): %d — the for-loop output tilers\n\n",
              generic.program().host_block_count());

  const int frames = 30;
  auto ng_filters = nongeneric.filter_programs();
  auto g_filters = generic.filter_programs();
  auto seq_ng = nongeneric.run_seq(ng_filters, frames, true);
  auto seq_g = generic.run_seq(g_filters, frames, false);
  auto cuda_ng_h = nongeneric.run_cuda_filter(ng_filters.h, frames, true);
  auto cuda_ng_v = nongeneric.run_cuda_filter(ng_filters.v, frames, true);
  auto cuda_g_h = generic.run_cuda_filter(g_filters.h, frames, true);
  auto cuda_g_v = generic.run_cuda_filter(g_filters.v, frames, true);

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

  // Reassemble the channels for the PPM (one chain run per channel).
  gpu::VirtualGpu device(gpu::gtx480());
  gpu::cuda::Runtime rt(device);
  gpu::Profiler host_profiler;
  RgbFrame out;
  IntArray* channels[3] = {&out.r, &out.g, &out.b};
  for (int ch = 0; ch < 3; ++ch) {
    // Move the frame in and out: a braced argument list would copy it.
    std::vector<sac::Value> args(1);
    args[0] = synthetic_channel(cfg.frame_shape(), 0, ch);
    sac::Value res =
        nongeneric.program().run(rt, std::move(args), gpu::i7_930(), host_profiler, true);
    *channels[ch] = std::move(res.ints());
  }
  write_ppm(out_path, out);
  std::printf("wrote %s (%lldx%lld)\n", out_path.c_str(),
              static_cast<long long>(out.r.shape()[1]),
              static_cast<long long>(out.r.shape()[0]));
  return 0;
}
