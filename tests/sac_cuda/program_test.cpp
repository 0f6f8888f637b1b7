#include "sac_cuda/program.hpp"

#include <gtest/gtest.h>

#include "../support/mini_downscaler.hpp"
#include "fault/fault.hpp"
#include "sac/interp.hpp"
#include "sac/parser.hpp"
#include "sac_cuda/codegen_text.hpp"

namespace saclo::sac_cuda {
namespace {

using sac::ArgSpec;
using sac::ElemType;
using sac::Value;

struct Fixture {
  sac::Module mod = sac::parse(kMiniDownscalerSrc);
  gpu::VirtualGpu gpu{gpu::gtx480(), 2};
  gpu::cuda::Runtime rt{gpu};
  gpu::Profiler host_profiler;
  gpu::HostSpec host = gpu::i7_930();

  CudaProgram plan_fn(const std::string& fn, bool wlf = true) {
    sac::CompileOptions opts;
    opts.enable_wlf = wlf;
    auto cf = sac::compile(mod, fn, {ArgSpec::array(ElemType::Int, Shape{8, 16})}, opts);
    return CudaProgram::plan(std::move(cf));
  }
};

IntArray test_frame() {
  return IntArray::generate(Shape{8, 16},
                            [](const Index& i) { return i[0] * 37 + i[1] * 11 + 5; });
}

TEST(CudaProgramTest, NonGenericPipelineIsAllKernels) {
  Fixture f;
  CudaProgram p = f.plan_fn("hfilter_nongeneric");
  EXPECT_EQ(p.host_block_count(), 0);
  // Paper Section VII/VIII: after WLF, one kernel per generator of the
  // single fused with-loop (3 residue generators + boundary splits).
  EXPECT_GE(p.kernel_count(), 3);
}

TEST(CudaProgramTest, NonGenericResultMatchesInterpreter) {
  Fixture f;
  CudaProgram p = f.plan_fn("hfilter_nongeneric");
  const IntArray frame = test_frame();
  const Value expected = sac::run_function(f.mod, "hfilter_nongeneric", {Value(frame)});
  const Value actual = p.run(f.rt, {Value(frame)}, f.host, f.host_profiler, true);
  EXPECT_EQ(expected, actual);
}

TEST(CudaProgramTest, RunGivesItsArgumentsBackOnReturnAndOnAFault) {
  Fixture f;
  CudaProgram p = f.plan_fn("hfilter_nongeneric");
  const IntArray frame = test_frame();
  std::vector<Value> args{Value(frame)};
  const std::int64_t* storage = args[0].ints().data().data();
  const CudaProgram::RunOptions opts;
  p.run(f.rt, args, f.host, f.host_profiler, opts);
  EXPECT_EQ(args[0].ints(), frame);
  EXPECT_EQ(args[0].ints().data().data(), storage) << "the argument was copied, not lent";

  fault::FaultSpec spec;
  spec.after_transfers = 0;
  spec.kind = fault::FaultKind::Transfer;
  fault::FaultInjector injector({spec});
  f.gpu.set_fault_injector(&injector);
  EXPECT_THROW(p.run(f.rt, args, f.host, f.host_profiler, opts), fault::DeviceFault);
  f.gpu.set_fault_injector(nullptr);
  EXPECT_EQ(args[0].ints(), frame);
  EXPECT_EQ(args[0].ints().data().data(), storage);
}

TEST(CudaProgramTest, GenericPipelineFallsBackToHostTiler) {
  Fixture f;
  CudaProgram p = f.plan_fn("hfilter_generic");
  // The fused gather+task runs as kernels, the for-nest scatter on the
  // host — the paper's Figure 9 explanation.
  EXPECT_GE(p.kernel_count(), 1);
  EXPECT_GE(p.host_block_count(), 1);
  const IntArray frame = test_frame();
  const Value expected = sac::run_function(f.mod, "hfilter_generic", {Value(frame)});
  const Value actual = p.run(f.rt, {Value(frame)}, f.host, f.host_profiler, true);
  EXPECT_EQ(expected, actual);
  // The intermediate array had to come back to the host before the
  // generic output tiler could run: a device-to-host transfer beyond
  // the final result copy must be present.
  EXPECT_GE(f.gpu.profiler().us_for(gpu::cuda::Runtime::kDtoHOp), 0.0);
  const auto rows = f.gpu.profiler().rows();
  std::int64_t d2h_calls = 0;
  for (const auto& r : rows) {
    if (r.kind == gpu::OpKind::MemcpyDtoH) d2h_calls += r.calls;
  }
  EXPECT_GE(d2h_calls, 1);
  // Host time was accounted.
  EXPECT_GT(f.host_profiler.total_us(gpu::OpKind::Host), 0.0);
}

TEST(CudaProgramTest, TimingOnlyRunsAccrueSameTime) {
  Fixture f;
  CudaProgram p = f.plan_fn("hfilter_nongeneric");
  const IntArray frame = test_frame();
  p.run(f.rt, {Value(frame)}, f.host, f.host_profiler, true);
  const double first = f.gpu.clock_us() + f.host_profiler.total_us();
  p.run(f.rt, {Value(frame)}, f.host, f.host_profiler, false);
  const double second = f.gpu.clock_us() + f.host_profiler.total_us() - first;
  EXPECT_NEAR(second, first, first * 1e-9);
}

TEST(CudaProgramTest, TimingOnlyRunsWorkForGenericAfterOneExecution) {
  Fixture f;
  CudaProgram p = f.plan_fn("hfilter_generic");
  const IntArray frame = test_frame();
  p.run(f.rt, {Value(frame)}, f.host, f.host_profiler, true);
  const double first = f.gpu.clock_us() + f.host_profiler.total_us();
  p.run(f.rt, {Value(frame)}, f.host, f.host_profiler, false);
  const double second = f.gpu.clock_us() + f.host_profiler.total_us() - first;
  EXPECT_NEAR(second, first, first * 0.05);
}

TEST(CudaProgramTest, NoWlfPlanHasKernelPerStage) {
  Fixture f;
  CudaProgram p = f.plan_fn("hfilter_nongeneric", /*wlf=*/false);
  // Without WLF: input tiler, task, zeros and output tiler each keep
  // their own with-loops — more kernel groups, intermediate arrays on
  // the device.
  int kernel_groups = 0;
  for (const Step& s : p.steps()) {
    if (s.kind == Step::Kind::Kernels) ++kernel_groups;
  }
  EXPECT_GE(kernel_groups, 3);
  const IntArray frame = test_frame();
  const Value expected = sac::run_function(f.mod, "hfilter_nongeneric", {Value(frame)});
  const Value actual = p.run(f.rt, {Value(frame)}, f.host, f.host_profiler, true);
  EXPECT_EQ(expected, actual);
}

TEST(CudaProgramTest, KernelCostsAreDerivedFromIr) {
  Fixture f;
  CudaProgram p = f.plan_fn("hfilter_nongeneric");
  for (const Step& s : p.steps()) {
    if (s.kind != Step::Kind::Kernels) continue;
    for (const GenKernel& k : s.group.kernels) {
      EXPECT_GT(k.cost.flops_per_thread, 0.0) << k.name;
      EXPECT_GT(k.cost.global_loads_per_thread, 0.0) << k.name;
      EXPECT_GE(k.cost.global_stores_per_thread, 1.0) << k.name;
      EXPECT_GE(k.cost.warp_access_stride, 1) << k.name;
      EXPECT_GT(k.threads, 0) << k.name;
    }
  }
}

TEST(CudaProgramTest, SequentialLoweringMatchesInterpreter) {
  Fixture f;
  auto cf = sac::compile(f.mod, "hfilter_nongeneric",
                         {ArgSpec::array(ElemType::Int, Shape{8, 16})});
  const IntArray frame = test_frame();
  const Value expected = sac::run_function(f.mod, "hfilter_nongeneric", {Value(frame)});
  HostRunResult r = run_sequential(cf, {Value(frame)}, f.host, true);
  EXPECT_EQ(expected, r.result);
  EXPECT_GT(r.ops, 0.0);
  EXPECT_GT(r.time_us, 0.0);
  // Timing-only runs use the same static estimate.
  HostRunResult r2 = run_sequential(cf, {Value(frame)}, f.host, false);
  EXPECT_DOUBLE_EQ(r.time_us, r2.time_us);
}

TEST(CudaProgramTest, SequentialGenericAndNonGenericClose) {
  // Paper Figure 9: sequential runtimes do not vary significantly
  // between the generic and non-generic implementations.
  Fixture f;
  auto cf_g =
      sac::compile(f.mod, "hfilter_generic", {ArgSpec::array(ElemType::Int, Shape{8, 16})});
  auto cf_n = sac::compile(f.mod, "hfilter_nongeneric",
                           {ArgSpec::array(ElemType::Int, Shape{8, 16})});
  HostRunResult a = run_sequential(cf_g, {}, f.host, false);
  HostRunResult b = run_sequential(cf_n, {}, f.host, false);
  EXPECT_LT(std::abs(a.time_us - b.time_us) / std::max(a.time_us, b.time_us), 0.6);
}

TEST(CudaCodegenTest, EmitsKernelsAndDriver) {
  Fixture f;
  CudaProgram p = f.plan_fn("hfilter_nongeneric");
  const std::string src = p.cuda_source();
  EXPECT_NE(src.find("__global__ void"), std::string::npos);
  EXPECT_NE(src.find("blockIdx.x * blockDim.x + threadIdx.x"), std::string::npos);
  EXPECT_NE(src.find("cudaMemcpyAsync"), std::string::npos);
  EXPECT_NE(src.find("cudaMemcpyHostToDevice"), std::string::npos);
  EXPECT_NE(src.find("cudaMemcpyDeviceToHost"), std::string::npos);
  EXPECT_NE(src.find("<<<"), std::string::npos);
  // One __global__ per generator kernel.
  std::size_t count = 0;
  for (std::size_t pos = src.find("__global__"); pos != std::string::npos;
       pos = src.find("__global__", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, static_cast<std::size_t>(p.kernel_count()));
}

TEST(CudaProgramTest, PartialModarrayRunsAsCopyPlusGenKernels) {
  // A modarray whose generators cover only part of the frame: the
  // backend emits a device-to-device copy of the target plus one kernel
  // per generator, and the result matches the interpreter.
  const char* src = R"(
int[*] main(int[*] v) {
  base = with { (. <= [i] <= .) : v[[i]] * 2; } : genarray(shape(v));
  o = with { ([1] <= [i] < [16] step [4]) : v[[i]] + 100; } : modarray(base);
  return (o);
}
)";
  const sac::Module m = sac::parse(src);
  auto cf = sac::compile(m, "main", {ArgSpec::array(ElemType::Int, Shape{16})});
  CudaProgram p = CudaProgram::plan(cf);
  EXPECT_EQ(p.host_block_count(), 0);
  bool has_modarray_group = false;
  for (const Step& s : p.steps()) {
    if (s.kind == Step::Kind::Kernels && s.group.is_modarray) has_modarray_group = true;
  }
  EXPECT_TRUE(has_modarray_group);
  gpu::VirtualGpu gpu(gpu::gtx480(), 1);
  gpu::cuda::Runtime rt(gpu);
  gpu::Profiler host_profiler;
  const IntArray v = IntArray::generate(Shape{16}, [](const Index& i) { return i[0] + 1; });
  const Value expected = sac::run_function(m, "main", {Value(v)});
  const Value actual = p.run(rt, {Value(v)}, gpu::i7_930(), host_profiler, true);
  EXPECT_EQ(expected, actual);
}

/// Plans `main(int[10] v)` and runs it on both backends against the
/// interpreter; returns the plan.
CudaProgram expect_matches_interpreter(const std::string& src) {
  const sac::Module m = sac::parse(src);
  auto cf = sac::compile(m, "main", {ArgSpec::array(ElemType::Int, Shape{10})});
  CudaProgram p = CudaProgram::plan(cf);
  const IntArray v = IntArray::generate(Shape{10}, [](const Index& i) { return i[0] * 10; });
  const Value expected = sac::run_function(m, "main", {Value(v)});
  for (const gpu::BackendKind backend : gpu::available_backends()) {
    gpu::VirtualGpu gpu(gpu::gtx480(), 2, backend);
    gpu::cuda::Runtime rt(gpu);
    gpu::Profiler host_profiler;
    EXPECT_EQ(p.run(rt, {Value(v)}, gpu::i7_930(), host_profiler, true), expected)
        << gpu::backend_kind_name(backend) << "\n" << src;
  }
  return p;
}

bool needs_fill(const CudaProgram& p) {
  for (const Step& s : p.steps()) {
    if (s.kind == Step::Kind::Kernels && s.group.target == "o") return s.group.needs_default_fill;
  }
  ADD_FAILURE() << "no kernel group for 'o'";
  return false;
}

std::string genarray_of(const std::string& generators) {
  return "int[*] main(int[*] v) {\n  o = with { " + generators +
         " } : genarray([10], 7);\n  return (o);\n}\n";
}

TEST(CudaProgramTest, OverlappingGeneratorsStillGetTheDefaultFill) {
  // [0,6) and [3,8) hold 6 + 5 = 11 >= 10 points, yet 8 and 9 are
  // holes that must read the default 7, as in the interpreter.
  const CudaProgram p = expect_matches_interpreter(
      genarray_of("([0] <= [i] < [6]) : v[[i]] + 1; ([3] <= [i] < [8]) : v[[i]] + 2;"));
  EXPECT_TRUE(needs_fill(p));
  const sac::Module m = sac::parse(
      genarray_of("([0] <= [i] < [6]) : v[[i]] + 1; ([3] <= [i] < [8]) : v[[i]] + 2;"));
  const IntArray v = IntArray::generate(Shape{10}, [](const Index& i) { return i[0] * 10; });
  const Value out = sac::run_function(m, "main", {Value(v)});
  EXPECT_EQ(out.ints()[8], 7);
  EXPECT_EQ(out.ints()[9], 7);
}

TEST(CudaProgramTest, OnlyAProvenExactCoverSkipsTheDefaultFill) {
  // Disjoint intervals, and interleaved progressions, that cover [0,10).
  EXPECT_FALSE(needs_fill(expect_matches_interpreter(
      genarray_of("([0] <= [i] < [4]) : v[[i]] + 1; ([4] <= [i] < [10]) : v[[i]] + 2;"))));
  EXPECT_FALSE(needs_fill(expect_matches_interpreter(genarray_of(
      "([0] <= [i] < [10] step [2]) : v[[i]] + 1; ([1] <= [i] < [10] step [2]) : v[[i]] + "
      "2;"))));
  EXPECT_FALSE(needs_fill(expect_matches_interpreter(genarray_of(
      "([0] <= [i] < [10] step [3]) : 1; ([1] <= [i] < [10] step [3]) : 2; "
      "([2] <= [i] < [10] step [3]) : 3;"))));
  // Ten points that overlap (0 and 6 twice) and leave holes.
  EXPECT_TRUE(needs_fill(expect_matches_interpreter(
      genarray_of("([0] <= [i] < [10] step [2]) : 1; ([0] <= [i] < [10] step [3]) : 2; "
                  "([9] <= [i] < [10]) : 3;"))));
  // Progressions that share no residue never meet; {0, 4} and {2, 8}
  // share residues, but their first common value (8) lies past the
  // end of {0, 4}.
  EXPECT_FALSE(needs_fill(expect_matches_interpreter(
      genarray_of("([0] <= [i] < [8] step [4]) : 1; ([2] <= [i] < [10] step [6]) : 2; "
                  "([1] <= [i] < [10] step [2]) : 3; ([6] <= [i] < [7]) : 4;"))));
  // Too few points.
  EXPECT_TRUE(needs_fill(expect_matches_interpreter(genarray_of("([0] <= [i] < [9]) : 1;"))));
}

/// The device profiler's rows of one run, names and calls.
std::vector<std::pair<std::string, std::int64_t>> calls_of(const gpu::Profiler& profiler) {
  std::vector<std::pair<std::string, std::int64_t>> calls;
  for (const gpu::Profiler::Row& r : profiler.rows()) calls.emplace_back(r.name, r.calls);
  return calls;
}

TEST(CudaProgramTest, PixelRunMatchesTheValueRun) {
  // All kernels; a host tiler that reads a device result; host steps
  // that read the parameter itself, as a compiled loop nest and
  // interpreted; and a function that returns its parameter.
  const auto reads_param = [](const std::string& host_step) {
    return "int[*] main(int[*] v) {\n"
           "  o = with { (. <= [i,j] <= .) : v[[i,j]] + 1; } : genarray(shape(v));\n  " +
           host_step + "\n  return (o);\n}\n";
  };
  const std::pair<std::string, std::string> cases[] = {
      {kMiniDownscalerSrc, "hfilter_nongeneric"},
      {kMiniDownscalerSrc, "hfilter_generic"},
      {reads_param("for (i = 0; i < 8; i++) { o[[i,0]] = v[[i,3]] * 2; }"), "main"},
      {reads_param("o[[0,1]] = v[[7,15]];"), "main"},
      {"int[*] main(int[*] v) { return (v); }", "main"}};
  const IntArray frame = test_frame();
  const PixelArray pixels = converted<std::int32_t>(frame);
  for (const auto& [src, fn] : cases) {
    const sac::Module m = sac::parse(src);
    CudaProgram p =
        CudaProgram::plan(sac::compile(m, fn, {ArgSpec::array(ElemType::Int, Shape{8, 16})}));
    const Value expected = sac::run_function(m, fn, {Value(frame)});
    for (const gpu::BackendKind backend : gpu::available_backends()) {
      gpu::VirtualGpu by_value(gpu::gtx480(), 2, backend);
      gpu::cuda::Runtime value_rt(by_value);
      gpu::VirtualGpu by_pixels(gpu::gtx480(), 2, backend);
      gpu::cuda::Runtime pixel_rt(by_pixels);
      gpu::Profiler value_host, pixel_host;
      EXPECT_EQ(p.run(value_rt, {Value(frame)}, gpu::i7_930(), value_host, true), expected)
          << fn;
      std::optional<Value> out;
      p.run(pixel_rt, pixels, gpu::i7_930(), pixel_host, CudaProgram::RunOptions{}, out);
      ASSERT_TRUE(out.has_value()) << fn;
      EXPECT_EQ(*out, expected) << fn << " on " << gpu::backend_kind_name(backend);
      // Widening the parameter for a host step is no transfer.
      EXPECT_EQ(calls_of(by_pixels.profiler()), calls_of(by_value.profiler())) << fn;
      EXPECT_EQ(calls_of(pixel_host), calls_of(value_host)) << fn;
    }
    EXPECT_EQ(pixels, converted<std::int32_t>(frame)) << fn << ": the frame was written";
  }
}

TEST(CudaProgramTest, EstimateOpsCountsLoops) {
  const sac::Module m = sac::parse(
      "int main() { s = 0; for (i = 0; i < 100; i++) { s = s + i; } return (s); }");
  auto ops = estimate_ops(m.functions[0].body);
  ASSERT_TRUE(ops.has_value());
  EXPECT_GT(*ops, 100.0);
  EXPECT_LT(*ops, 5000.0);
}

TEST(CudaProgramTest, EstimateOpsRejectsDynamicLoops) {
  const sac::Module m = sac::parse(
      "int main(int n) { s = 0; for (i = 0; i < n; i++) { s = s + i; } return (s); }");
  EXPECT_FALSE(estimate_ops(m.functions[0].body).has_value());
}

}  // namespace
}  // namespace saclo::sac_cuda
