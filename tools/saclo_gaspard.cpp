// saclo-gaspard — the GASPARD2-style chain driver for the built-in
// downscaler model.
//
// Usage:
//   saclo-gaspard [--height H] [--width W] [--emit=opencl|schedule|buffers] [--run FRAMES]
//
// Builds the paper's hierarchical Downscaler model for the given frame
// geometry, flattens it, runs the transformation chain and prints the
// requested artefact.

#include <cstdio>
#include <string>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/frames.hpp"
#include "apps/downscaler/pipelines.hpp"
#include "flag_number.hpp"

using namespace saclo;
using namespace saclo::apps;
using saclo::tools::flag_number;

int main(int argc, char** argv) try {
  DownscalerConfig cfg = DownscalerConfig::paper();
  std::string emit = "schedule";
  int run_frames = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--height" && i + 1 < argc) {
      cfg.height = flag_number<std::int64_t>(arg, argv[++i]);
    } else if (arg == "--width" && i + 1 < argc) {
      cfg.width = flag_number<std::int64_t>(arg, argv[++i]);
    } else if (arg.rfind("--emit=", 0) == 0) {
      emit = arg.substr(7);
    } else if (arg == "--run" && i + 1 < argc) {
      run_frames = flag_number<int>(arg, argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: saclo-gaspard [--height H] [--width W] "
                   "[--emit=opencl|schedule|buffers] [--run FRAMES]\n");
      return 2;
    }
  }

  try {
    cfg.validate();
    aol::Model model = build_hierarchical_downscaler(cfg).flatten();
    gaspard::OpenClApplication app = gaspard::OpenClApplication::build(model);

    if (emit == "opencl") {
      std::printf("%s", app.opencl_source().c_str());
    } else if (emit == "buffers") {
      for (const gaspard::BufferPlan& b : app.buffers()) {
        std::printf("%-16s %-14s %8lld bytes%s%s\n", b.array.c_str(),
                    b.shape.to_string().c_str(),
                    static_cast<long long>(b.shape.elements() * 4),
                    b.is_input ? "  [input]" : "", b.is_output ? "  [output]" : "");
      }
    } else if (emit == "schedule") {
      std::printf("model '%s': %zu arrays, %zu tasks\n", model.name().c_str(),
                  model.arrays().size(), model.tasks().size());
      for (aol::TaskId t : app.schedule()) {
        const aol::RepetitiveTask& task = model.tasks()[t];
        std::printf("  %-10s repetition %-14s IP %s\n", task.name.c_str(),
                    task.repetition.to_string().c_str(), task.op.name.c_str());
      }
    } else {
      std::fprintf(stderr, "unknown --emit '%s'\n", emit.c_str());
      return 2;
    }

    if (run_frames > 0) {
      gpu::VirtualGpu device(gpu::gtx480());
      gpu::opencl::CommandQueue queue(device);
      for (int f = 0; f < run_frames; ++f) {
        std::map<std::string, PixelArray> inputs;
        int ch = 0;
        for (const std::string& in : model.inputs()) {
          inputs.emplace(in, synthetic_pixels(cfg.frame_shape(), f, ch++));
        }
        app.run(queue, inputs, /*execute=*/f == 0);
      }
      std::printf("\n[run] %d frame(s), simulated profile:\n%s", run_frames,
                  device.profiler().table().c_str());
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "saclo-gaspard: %s\n", e.what());
    return 1;
  }
  return 0;
} catch (const tools::InvalidFlagValue& e) {
  std::fprintf(stderr, "saclo-gaspard: %s\n", e.what());
  return 2;
}
