// The paper's running example on the GASPARD2 route: the ArrayOL
// downscaler model (Figure 3/10) pushed through the transformation
// chain to OpenCL and executed on the simulated GPU.
//
//   $ ./example_downscaler_gaspard [out.ppm]

#include <cstdio>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/frames.hpp"
#include "apps/downscaler/pipelines.hpp"

using namespace saclo;
using namespace saclo::apps;

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "downscaled_gaspard.ppm";
  const DownscalerConfig cfg = DownscalerConfig::small();

  std::printf("=== 1. The ArrayOL model (MARTE RSM equivalent) ===\n");
  aol::Model model = build_downscaler_model(cfg);
  std::printf("model '%s': %zu arrays, %zu repetitive tasks\n", model.name().c_str(),
              model.arrays().size(), model.tasks().size());
  for (const aol::RepetitiveTask& t : model.tasks()) {
    std::printf("  task %-4s repetition %-12s in pattern %-6s out pattern %s\n",
                t.name.c_str(), t.repetition.to_string().c_str(),
                t.inputs[0].pattern.to_string().c_str(),
                t.outputs[0].pattern.to_string().c_str());
  }
  std::printf("\ntiler of task '%s' input: %s\n", model.tasks()[0].name.c_str(),
              model.tasks()[0].inputs[0].tiler.to_string().c_str());

  std::printf("\n=== 2. The transformation chain: validate -> schedule -> codegen ===\n");
  gaspard::OpenClApplication app = gaspard::OpenClApplication::build(model);
  std::printf("generated %zu OpenCL kernels, %zu device buffers\n\n", app.kernels().size(),
              app.buffers().size());
  std::printf("--- first generated kernel (Figure 11 style) ---\n%s\n",
              app.kernels()[0].opencl_source.c_str());

  std::printf("=== 3. Execute on the simulated GTX480 ===\n");
  GaspardDownscaler::Options opts;
  GaspardDownscaler pipeline(cfg, opts);
  auto result = pipeline.run(/*frames=*/30, /*exec_frames=*/1);
  std::printf("%s\n", pipeline.nvprof_table(result).c_str());

  // Write the first executed frame.
  gpu::VirtualGpu device(gpu::gtx480());
  gpu::opencl::CommandQueue queue(device);
  std::map<std::string, IntArray> inputs;
  inputs.emplace("frame_r", synthetic_channel(cfg.frame_shape(), 0, 0));
  inputs.emplace("frame_g", synthetic_channel(cfg.frame_shape(), 0, 1));
  inputs.emplace("frame_b", synthetic_channel(cfg.frame_shape(), 0, 2));
  auto outputs = app.run(queue, inputs, true);
  RgbFrame out{outputs.at("out_r"), outputs.at("out_g"), outputs.at("out_b")};
  write_ppm(out_path, out);
  std::printf("wrote %s (%lldx%lld)\n", out_path.c_str(),
              static_cast<long long>(out.r.shape()[1]),
              static_cast<long long>(out.r.shape()[0]));
  return 0;
}
