// End-to-end video pipeline: the paper's 25 fps scenario in miniature.
// Generates a synthetic clip, downscales every frame through the SaC
// route on the simulated GPU, computes per-frame statistics with the
// prelude's fold-based reductions, and writes the first/last frames as
// PPM images.
//
//   $ ./example_video_pipeline [frames] [outdir]

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "apps/downscaler/frames.hpp"
#include "apps/downscaler/pipelines.hpp"
#include "sac/interp.hpp"
#include "sac/parser.hpp"
#include "sac/stdlib.hpp"
#include "sac/typecheck.hpp"

using namespace saclo;
using namespace saclo::apps;

int main(int argc, char** argv) {
  const int frames = argc > 1 ? std::atoi(argv[1]) : 24;
  const std::string outdir = argc > 2 ? argv[2] : "/tmp";
  const DownscalerConfig cfg = DownscalerConfig::small();

  SacDownscaler::Options opts;
  SacDownscaler sac(cfg, opts);

  // Per-frame statistics in mini-SaC, using the prelude.
  sac::Module stats_mod = sac::parse(R"(
int[*] frame_stats(int[*] frame) {
  h = shape(frame)[0];
  w = shape(frame)[1];
  flat = with { ([0] <= [i] < [h * w]) : frame[[i / w, i % w]]; } : genarray([h * w]);
  s = [vmin(flat), vmax(flat), vsum(flat) / (h * w)];
  return (s);
}
)");
  sac::link_prelude(stats_mod);
  sac::typecheck(stats_mod);

  gpu::VirtualGpu device(gpu::gtx480());
  gpu::cuda::Runtime rt(device);
  gpu::Profiler host_profiler;

  std::printf("downscaling %d frames %lldx%lld -> %lldx%lld...\n", frames,
              static_cast<long long>(cfg.height), static_cast<long long>(cfg.width),
              static_cast<long long>(cfg.out_height()), static_cast<long long>(cfg.mid_width()));
  RgbFrame first_out;
  RgbFrame last_out;
  for (int f = 0; f < frames; ++f) {
    RgbFrame out;
    IntArray* channels[3] = {&out.r, &out.g, &out.b};
    for (int ch = 0; ch < 3; ++ch) {
      // Move the frame in and out: a braced argument list would copy it.
      std::vector<sac::Value> args(1);
      args[0] = synthetic_channel(cfg.frame_shape(), f, ch);
      sac::Value res = sac.program().run(rt, std::move(args), gpu::i7_930(), host_profiler, true);
      *channels[ch] = std::move(res.ints());
    }
    const sac::Value stats =
        sac::run_function(stats_mod, "frame_stats", {sac::Value(out.g)});
    if (f % 6 == 0 || f == frames - 1) {
      std::printf("  frame %3d: green channel min=%lld max=%lld mean=%lld\n", f,
                  static_cast<long long>(stats.ints()[0]),
                  static_cast<long long>(stats.ints()[1]),
                  static_cast<long long>(stats.ints()[2]));
    }
    if (f == 0) first_out = out;
    if (f == frames - 1) last_out = out;
  }

  write_ppm(outdir + "/clip_first.ppm", first_out);
  write_ppm(outdir + "/clip_last.ppm", last_out);
  std::printf("\nwrote %s/clip_first.ppm and %s/clip_last.ppm\n", outdir.c_str(),
              outdir.c_str());
  std::printf("\nsimulated GPU profile over the whole clip:\n%s",
              device.profiler().table().c_str());
  const double total_s = device.clock_us() / 1e6;
  std::printf("\nsimulated GPU time per frame: %.2f ms (%0.1f fps equivalent)\n",
              1e3 * total_s / frames, frames / total_s);
  return 0;
}
