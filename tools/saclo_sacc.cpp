// saclo-sacc — the mini-SaC compiler driver.
//
// Usage:
//   saclo-sacc <file.sac> <function> [--shape d0xd1x...]... [options]
//
// One --shape per (integer array) parameter of <function>, in order.
// Options:
//   --no-wlf        disable With-Loop Folding
//   --emit=sac      print the optimised mini-SaC (default)
//   --emit=cuda     print the generated CUDA C
//   --emit=plan     print the kernel/host step plan
//   --run           run on the simulated GTX480 with a deterministic
//                   input and print a checksum plus the profile
//
// Example:
//   saclo-sacc downscaler.sac hfilter_nongeneric --shape 1080x1920 --emit=cuda --run

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "flag_number.hpp"
#include "sac/interp.hpp"
#include "sac/parser.hpp"
#include "sac/pipeline.hpp"
#include "sac/printer.hpp"
#include "sac/typecheck.hpp"
#include "sac_cuda/codegen_text.hpp"
#include "sac_cuda/program.hpp"

using namespace saclo;

namespace {

Shape parse_shape(const std::string& text) {
  Index dims;
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, 'x')) {
    dims.push_back(tools::flag_number<std::int64_t>("--shape", part));
  }
  return Shape(dims);
}

int usage() {
  std::fprintf(stderr,
               "usage: saclo-sacc <file.sac> <function> [--shape d0xd1]... "
               "[--no-wlf] [--emit=sac|cuda|plan] [--run]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 3) return usage();
  const std::string path = argv[1];
  const std::string fn = argv[2];
  std::vector<Shape> shapes;
  bool wlf = true;
  bool run = false;
  std::string emit = "sac";
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shape" && i + 1 < argc) {
      shapes.push_back(parse_shape(argv[++i]));
    } else if (arg.rfind("--shape=", 0) == 0) {
      shapes.push_back(parse_shape(arg.substr(8)));
    } else if (arg == "--no-wlf") {
      wlf = false;
    } else if (arg.rfind("--emit=", 0) == 0) {
      emit = arg.substr(7);
    } else if (arg == "--run") {
      run = true;
    } else {
      return usage();
    }
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "saclo-sacc: cannot open '%s'\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  try {
    const sac::Module module = sac::parse(buf.str());
    sac::typecheck(module);
    const sac::FunDef* def = module.find(fn);
    if (def == nullptr) {
      std::fprintf(stderr, "saclo-sacc: no function '%s' in %s\n", fn.c_str(), path.c_str());
      return 1;
    }
    if (shapes.size() != def->params.size()) {
      std::fprintf(stderr, "saclo-sacc: '%s' has %zu parameter(s); pass one --shape each\n",
                   fn.c_str(), def->params.size());
      return 1;
    }
    std::vector<sac::ArgSpec> args;
    for (const Shape& s : shapes) args.push_back(sac::ArgSpec::array(sac::ElemType::Int, s));

    sac::CompileOptions opts;
    opts.enable_wlf = wlf;
    sac::CompiledFunction compiled = sac::compile(module, fn, args, opts);
    std::fprintf(stderr, "[saclo-sacc] %d folds, %d splits, %d mods removed, %d dead stmts\n",
                 compiled.stats.folds, compiled.stats.generator_splits,
                 compiled.stats.mods_removed, compiled.stats.stmts_removed);

    sac_cuda::CudaProgram program = sac_cuda::CudaProgram::plan(compiled);
    if (emit == "sac") {
      std::printf("%s", sac::print(compiled.fn).c_str());
    } else if (emit == "cuda") {
      std::printf("%s", program.cuda_source().c_str());
    } else if (emit == "plan") {
      std::printf("function %s: %d kernel(s), %d host block(s)\n", fn.c_str(),
                  program.kernel_count(), program.host_block_count());
      for (const sac_cuda::Step& step : program.steps()) {
        if (step.kind == sac_cuda::Step::Kind::Kernels) {
          std::printf("  kernels -> %s  (frame %s)\n", step.group.target.c_str(),
                      step.group.frame.to_string().c_str());
          for (const sac_cuda::GenKernel& k : step.group.kernels) {
            std::printf("    %-24s threads=%-10lld stride=%lld\n", k.name.c_str(),
                        static_cast<long long>(k.threads),
                        static_cast<long long>(k.cost.warp_access_stride));
          }
        } else {
          std::printf("  host block (%zu stmt(s)): %s\n", step.host.stmt_indices.size(),
                      step.host.compiled()
                          ? "compiled loop nest"
                          : ("interpreted, " + step.host.interpreted_because).c_str());
        }
      }
    } else {
      return usage();
    }

    if (run) {
      gpu::VirtualGpu device(gpu::gtx480());
      gpu::cuda::Runtime runtime(device);
      gpu::Profiler host_profiler;
      std::vector<sac::Value> values;
      for (const Shape& s : shapes) {
        values.push_back(sac::Value(IntArray::generate(
            s, [](const Index& i) { return (i[0] * 31 + (i.size() > 1 ? i[1] : 0) * 7) % 256; })));
      }
      const sac::Value result =
          program.run(runtime, values, gpu::i7_930(), host_profiler, true);
      std::int64_t checksum = 0;
      for (std::int64_t i = 0; i < result.ints().elements(); ++i) checksum += result.ints()[i];
      std::printf("\n[run] result shape %s, checksum %lld\n",
                  result.shape().to_string().c_str(), static_cast<long long>(checksum));
      std::printf("%s", device.profiler().table().c_str());
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "saclo-sacc: %s\n", e.what());
    return 1;
  }
  return 0;
} catch (const tools::InvalidFlagValue& e) {
  std::fprintf(stderr, "saclo-sacc: %s\n", e.what());
  return 2;
}
