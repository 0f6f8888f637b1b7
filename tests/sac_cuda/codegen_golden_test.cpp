#include <gtest/gtest.h>

#include "sac/parser.hpp"
#include "sac/pipeline.hpp"
#include "sac_cuda/codegen_text.hpp"
#include "sac_cuda/program.hpp"

namespace saclo::sac_cuda {
namespace {

/// Golden test: the exact CUDA C emitted for a fixed small program.
/// Pins the kernel signature convention, the global-id decode (the
/// dimension-0-fastest mapping shared with the paper's Figure 11), the
/// pointer-arithmetic selection lowering, and the host driver shape.
TEST(CodegenGoldenTest, ScaleAddKernel) {
  const sac::Module m = sac::parse(R"(
int[*] scaleadd(int[*] v) {
  a = with { (. <= iv <= .) : v[iv] * 2; } : genarray(shape(v));
  b = with { (. <= iv <= .) : a[iv] + 1; } : genarray(shape(v));
  return (b);
}
)");
  auto cf = sac::compile(m, "scaleadd", {sac::ArgSpec::array(sac::ElemType::Int, Shape{4, 8})});
  CudaProgram p = CudaProgram::plan(cf);
  const std::string src = p.cuda_source();
  const char* expected_kernel = R"(__global__ void scaleadd_w0_g0(const int* v, int* b)
{
  int iGID = blockIdx.x * blockDim.x + threadIdx.x;
  if (iGID >= 32) return;
  int t0 = iGID % 4;
  int r0 = iGID / 4;
  int iv_w2 = 0 + 1 * t0;
  int t1 = r0 % 8;
  int iv_w3 = 0 + 1 * t1;
  b[(iv_w2) * 8 + iv_w3] = v[(iv_w2) * 8 + iv_w3] * 2 + 1;
}
)";
  EXPECT_NE(src.find(expected_kernel), std::string::npos) << src;
  const char* expected_driver = R"(void scaleadd_host(const int* v_h, int* result_h)
{
  cudaMalloc(&v, sizeof(int) * N_v);
  cudaMemcpyAsync(v, v_h, sizeof(int) * N_v, cudaMemcpyHostToDevice);
  cudaMalloc(&b, sizeof(int) * 32);
  scaleadd_w0_g0<<<1, 256>>>(v, b);
  cudaMemcpyAsync(result_h, b, sizeof(int) * N_b, cudaMemcpyDeviceToHost);
}
)";
  EXPECT_NE(src.find(expected_driver), std::string::npos) << src;
}

TEST(CodegenGoldenTest, SteppedGeneratorDecode) {
  // A step-3 generator must decode iv = lb + 3*t and compute strided
  // offsets — the shape of the paper's post-WLF output tiler kernels.
  const sac::Module m = sac::parse(R"(
int[*] pick(int[*] v) {
  base = with { ([0] <= [i] < [12]) : 0; } : genarray([12]);
  o = with { ([1] <= [i] < [12] step [3]) : v[[i]] * 10; } : modarray(base);
  return (o);
}
)");
  auto cf = sac::compile(m, "pick", {sac::ArgSpec::array(sac::ElemType::Int, Shape{12})});
  CudaProgram p = CudaProgram::plan(cf);
  const std::string src = p.cuda_source();
  EXPECT_NE(src.find("int i = 1 + 3 * t0;"), std::string::npos) << src;
  EXPECT_NE(src.find("if (iGID >= 4) return;"), std::string::npos) << src;
  // The modarray with-loop contributes a generator kernel on top of the
  // device copy of its target.
  EXPECT_GE(p.kernel_count(), 2);
}

TEST(CodegenGoldenTest, HostBlockCommentForForLoops) {
  const sac::Module m = sac::parse(R"(
int[*] host_scatter(int[*] v) {
  a = with { (. <= [i] <= .) : v[[i]] * 2; } : genarray(shape(v));
  out = with { (. <= [i] <= .) : 0; } : genarray(shape(v));
  for (i = 0; i < 8; i++) { out[[i]] = a[[7 - i]]; }
  return (out);
}
)");
  auto cf = sac::compile(m, "host_scatter", {sac::ArgSpec::array(sac::ElemType::Int, Shape{8})});
  CudaProgram p = CudaProgram::plan(cf);
  const std::string src = p.cuda_source();
  EXPECT_NE(src.find("host-executed statements"), std::string::npos) << src;
  EXPECT_NE(src.find("cudaMemcpyDeviceToHost);  // host-executed statements follow"),
            std::string::npos)
      << src;
}

// An expression the emitter has no C form for is a typed error, never a
// placeholder in the text: a selection from a literal array, from an
// array of unknown shape, and a bare array literal.
TEST(CodegenGoldenTest, UnprintableExpressionsAreTypedErrors) {
  KernelGroup group;
  group.target = "out";
  group.full = Shape{1};
  const std::map<std::string, Shape> shapes{{"v", Shape{4}}};
  std::vector<sac::ExprPtr> values;
  {
    std::vector<sac::ExprPtr> elems;
    elems.push_back(sac::make_int(1));
    elems.push_back(sac::make_int(2));
    values.push_back(sac::make_select(sac::make_array_lit(std::move(elems)), sac::make_int(0)));
  }
  values.push_back(sac::make_select(sac::make_var("ghost"), sac::make_int(0)));
  {
    std::vector<sac::ExprPtr> elems;
    elems.push_back(sac::make_var("i"));
    values.push_back(sac::make_array_lit(std::move(elems)));
  }
  for (sac::ExprPtr& value : values) {
    GenKernel k;
    k.name = "k";
    k.source.value = std::move(value);
    EXPECT_THROW(emit_kernel_source(k, group, shapes), CodegenError);
  }
  // The same selection from a known array prints.
  GenKernel k;
  k.name = "k";
  k.source.value = sac::make_select(sac::make_var("v"), sac::make_int(3));
  EXPECT_NE(emit_kernel_source(k, group, shapes).find("out[0] = v[3];"), std::string::npos);
}

}  // namespace
}  // namespace saclo::sac_cuda
