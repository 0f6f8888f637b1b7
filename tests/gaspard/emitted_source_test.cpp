// The emitted OpenCL text, compiled and run. Each application's
// translation unit is compiled as C by the compiler that builds the
// project, behind a prelude that maps the OpenCL qualifiers away and
// get_global_id to a variable. The test loads the shared object, runs
// every kernel over every work item in schedule order and compares each
// output element with the host backend's execution of the model before
// any rewrite, so a wrong IP body, tiler or composition shows.

#include <dlfcn.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/config.hpp"
#include "apps/downscaler/pipelines.hpp"
#include "core/fmt.hpp"
#include "gaspard/chain.hpp"
#include "opt/search.hpp"
#include "support/random_tilers.hpp"

namespace saclo::gaspard {
namespace {

using apps::DownscalerConfig;

constexpr const char* kPrelude = R"(#define __kernel
#define __global
#define min(a, b) ((a) < (b) ? (a) : (b))
#define max(a, b) ((a) > (b) ? (a) : (b))
static long saclo_gid;
#define get_global_id(dim) saclo_gid
)";

/// One application's emitted source built into a shared object, with an
/// entry point per kernel that runs it over all its work items.
class CompiledApplication {
 public:
  explicit CompiledApplication(const OpenClApplication& app) : app_(&app) {
    static int serial = 0;
    dir_ = std::filesystem::temp_directory_path() /
           cat("saclo_emitted_", ::getpid(), "_", serial++);
    std::filesystem::create_directories(dir_);
    std::string source = kPrelude + app.opencl_source();
    for (const TaskKernel& k : app.kernels()) {
      const aol::RepetitiveTask& task = app.model().tasks()[k.task];
      std::vector<std::string> args;
      for (std::size_t p = 0; p < task.inputs.size() + task.outputs.size(); ++p) {
        args.push_back(cat("b[", p, "]"));
      }
      source += cat("void saclo_run_", c_identifier(k.name), "(int** b) {\n",
                    "  for (saclo_gid = 0; saclo_gid < ", k.work_items, "; ++saclo_gid) ",
                    c_identifier(k.name), "(", join(args, ", "), ");\n}\n");
    }
    const std::filesystem::path c_file = dir_ / "app.c";
    std::ofstream(c_file) << source;
    const std::filesystem::path so_file = dir_ / "app.so";
    const std::string log = (dir_ / "cc.log").string();
    const std::string command = cat(SACLO_C_COMPILER, " -x c -std=c99 -O1 -fPIC -shared -o ",
                                    so_file.string(), " ", c_file.string(), " > ", log, " 2>&1");
    if (std::system(command.c_str()) != 0) {
      std::ifstream in(log);
      compile_error_ = cat("`", command, "` failed:\n",
                           std::string(std::istreambuf_iterator<char>(in), {}));
      return;
    }
    handle_ = ::dlopen(so_file.c_str(), RTLD_NOW | RTLD_LOCAL);
  }
  ~CompiledApplication() {
    if (handle_) ::dlclose(handle_);
    std::filesystem::remove_all(dir_);
  }
  CompiledApplication(const CompiledApplication&) = delete;
  CompiledApplication& operator=(const CompiledApplication&) = delete;

  const std::string& compile_error() const { return compile_error_; }

  /// Runs the kernels in schedule order over one int buffer per array,
  /// the inputs filled from `inputs`; returns the output arrays.
  std::map<std::string, IntArray> run(const std::map<std::string, IntArray>& inputs) const {
    std::map<std::string, std::vector<int>> buffers;
    for (const auto& [name, shape] : app_->model().arrays()) {
      std::vector<int>& b = buffers[name];
      b.assign(static_cast<std::size_t>(shape.elements()), 0);
      if (const auto it = inputs.find(name); it != inputs.end()) {
        for (std::int64_t i = 0; i < shape.elements(); ++i) {
          b[static_cast<std::size_t>(i)] = static_cast<int>(it->second[i]);
        }
      }
    }
    for (const TaskKernel& k : app_->kernels()) {
      const aol::RepetitiveTask& task = app_->model().tasks()[k.task];
      std::vector<int*> args;
      for (const aol::TiledPort& p : task.inputs) args.push_back(buffers.at(p.port.name).data());
      for (const aol::TiledPort& p : task.outputs) args.push_back(buffers.at(p.port.name).data());
      const std::string entry = "saclo_run_" + c_identifier(k.name);
      auto* kernel = reinterpret_cast<void (*)(int**)>(::dlsym(handle_, entry.c_str()));
      if (!kernel) throw Error(cat("no symbol ", entry));
      kernel(args.data());
    }
    std::map<std::string, IntArray> outputs;
    for (const std::string& name : app_->model().outputs()) {
      IntArray a(app_->model().array_shape(name));
      const std::vector<int>& b = buffers.at(name);
      for (std::int64_t i = 0; i < a.elements(); ++i) a[i] = b[static_cast<std::size_t>(i)];
      outputs.emplace(name, std::move(a));
    }
    return outputs;
  }

 private:
  const OpenClApplication* app_;
  std::filesystem::path dir_;
  std::string compile_error_;
  void* handle_ = nullptr;
};

std::map<std::string, IntArray> random_inputs(const aol::Model& model, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::map<std::string, IntArray> inputs;
  for (const std::string& name : model.inputs()) {
    inputs.emplace(name, IntArray::generate(model.array_shape(name), [&](const Index&) {
                     return static_cast<std::int64_t>(rng() % 256);
                   }));
  }
  return inputs;
}

std::map<std::string, IntArray> run_on_host(const OpenClApplication& app,
                                            const std::map<std::string, IntArray>& inputs) {
  OpenClApplication copy = app;
  gpu::VirtualGpu gpu(gpu::gtx480(), 2, gpu::BackendKind::Host);
  gpu::opencl::CommandQueue queue(gpu);
  return copy.run(queue, inputs, /*execute=*/true);
}

/// Compiles and runs `app`'s emitted text and expects every output
/// element to equal `expected`.
void expect_emitted_text_computes(const OpenClApplication& app,
                                  const std::map<std::string, IntArray>& inputs,
                                  const std::map<std::string, IntArray>& expected) {
  const CompiledApplication compiled(app);
  ASSERT_EQ(compiled.compile_error(), "");
  const auto actual = compiled.run(inputs);
  for (const auto& [name, want] : expected) {
    const IntArray& got = actual.at(name);
    ASSERT_EQ(got.shape(), want.shape()) << name;
    std::int64_t wrong = 0;
    std::int64_t first = -1;
    for (std::int64_t i = 0; i < want.elements(); ++i) {
      if (got[i] == want[i]) continue;
      if (wrong++ == 0) first = i;
    }
    EXPECT_EQ(wrong, 0) << "'" << name << "': " << wrong << " of " << want.elements()
                        << " elements differ, the first at " << first;
  }
}

const std::vector<std::pair<std::string, DownscalerConfig>> kGeometries = {
    {"tiny", DownscalerConfig::tiny()},
    {"small", DownscalerConfig::small()},
    {"paper", DownscalerConfig::paper()}};

// The models the drivers run (saclo-serve, the benches): the flat RGB
// model after the optimizer at each level.
TEST(EmittedSource, DriversModelAtEveryOptLevelComputesTheHostResult) {
  for (const auto& [geometry, cfg] : kGeometries) {
    std::map<std::string, IntArray> inputs;
    std::map<std::string, IntArray> expected;
    for (const int level : {0, 1, 2}) {
      SCOPED_TRACE(cat(geometry, " O", level));
      apps::GaspardDownscaler::Options opts;
      opts.opt_level = level;
      const apps::GaspardDownscaler gd(cfg, opts);
      if (level == 0) {
        inputs = random_inputs(gd.application().model(), 11);
        expected = run_on_host(gd.application(), inputs);
      }
      expect_emitted_text_computes(gd.application(), inputs, expected);
    }
  }
}

// saclo-gaspard's model: the hierarchical downscaler flattened, with
// dotted names such as `b.h.hf` and `b.mid`.
TEST(EmittedSource, FlattenedModelAtEveryOptLevelComputesTheHostResult) {
  for (const auto& [geometry, cfg] : kGeometries) {
    const aol::Model flat = apps::build_hierarchical_downscaler(cfg).flatten();
    const OpenClApplication reference = OpenClApplication::build(flat);
    const auto inputs = random_inputs(flat, 12);
    const auto expected = run_on_host(reference, inputs);
    for (const int level : {0, 1, 2}) {
      SCOPED_TRACE(cat(geometry, " O", level));
      opt::SearchOptions options;
      options.level = level;
      const OpenClApplication app =
          OpenClApplication::build(level == 0 ? flat : opt::optimize(flat, options).model);
      // The kernels keep their dotted names; the text declares them as
      // C identifiers.
      for (const TaskKernel& k : app.kernels()) {
        EXPECT_NE(k.name.find('.'), std::string::npos) << k.name;
        EXPECT_NE(app.opencl_source().find("__kernel void " + c_identifier(k.name) + "("),
                  std::string::npos)
            << k.name;
      }
      expect_emitted_text_computes(app, inputs, expected);
    }
  }
}

// The random tilers of the interior oracle, negative origins, pavings
// and fittings included: the emitted index arithmetic must wrap the way
// the host's floor-mod does.
TEST(EmittedSource, RandomTilersComputeTheHostResult) {
  int negative = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(cat("seed ", seed));
    const aol::Model model = testsupport::random_model(seed);
    const aol::RepetitiveTask& task = model.tasks()[0];
    bool has_negative = false;
    for (const auto* ports : {&task.inputs, &task.outputs}) {
      for (const aol::TiledPort& p : *ports) {
        const TilerSpec& t = p.tiler;
        for (const std::int64_t o : t.origin) has_negative |= o < 0;
        for (std::size_t r = 0; r < t.paving.rows(); ++r) {
          for (std::size_t c = 0; c < t.paving.cols(); ++c) has_negative |= t.paving.at(r, c) < 0;
          for (std::size_t c = 0; c < t.fitting.cols(); ++c) has_negative |= t.fitting.at(r, c) < 0;
        }
      }
    }
    negative += has_negative ? 1 : 0;
    const OpenClApplication app = OpenClApplication::build(model);
    const auto inputs = random_inputs(model, seed);
    expect_emitted_text_computes(app, inputs, run_on_host(app, inputs));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(negative, 50);
}

}  // namespace
}  // namespace saclo::gaspard
