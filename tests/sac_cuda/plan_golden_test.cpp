// Golden output of the SaC -> CUDA plan at the paper's geometry
// (1080x1920): per kernel the thread count and the simulated cost
// descriptor, and a hash of the emitted CUDA C, for the generic and
// non-generic H/V filters. Any speed-up of how a planned kernel
// executes on the host must leave all of these untouched: they are
// what the simulated clock is made of.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/downscaler/config.hpp"
#include "apps/downscaler/pipelines.hpp"
#include "core/fmt.hpp"

namespace saclo::sac_cuda {
namespace {

using apps::DownscalerConfig;
using apps::SacDownscaler;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

SacDownscaler paper_downscaler(bool generic) {
  SacDownscaler::Options opts;
  opts.generic = generic;
  return SacDownscaler(DownscalerConfig::paper(), opts);
}

/// One line per generator kernel: name, threads and the simulated
/// cost descriptor.
std::vector<std::string> describe(const CudaProgram& p) {
  std::vector<std::string> out;
  for (const Step& s : p.steps()) {
    if (s.kind != Step::Kind::Kernels) continue;
    for (const GenKernel& k : s.group.kernels) {
      out.push_back(cat(k.name, " threads=", k.threads, " flops=", k.cost.flops_per_thread,
                        " loads=", k.cost.global_loads_per_thread,
                        " stores=", k.cost.global_stores_per_thread,
                        " stride=", k.cost.warp_access_stride));
    }
  }
  return out;
}

TEST(SacPlanGolden, PaperNonGenericKernels) {
  const SacDownscaler sd = paper_downscaler(false);
  EXPECT_EQ(describe(sd.h_program()),
            (std::vector<std::string>{
                "hfilter_nongeneric_w0_g0 threads=259200 flops=24 loads=6 stores=1 stride=1920",
                "hfilter_nongeneric_w0_g1 threads=259200 flops=26 loads=6 stores=1 stride=1920",
                "hfilter_nongeneric_w0_g2 threads=258120 flops=26 loads=6 stores=1 stride=1920",
                "hfilter_nongeneric_w0_g3 threads=1080 flops=29 loads=6 stores=1 stride=1048576",
            }));
  EXPECT_EQ(describe(sd.v_program()),
            (std::vector<std::string>{
                "vfilter_nongeneric_w0_g0 threads=86400 flops=24 loads=6 stores=1 stride=6480",
                "vfilter_nongeneric_w0_g1 threads=86400 flops=26 loads=6 stores=1 stride=6480",
                "vfilter_nongeneric_w0_g2 threads=85680 flops=26 loads=6 stores=1 stride=6480",
                "vfilter_nongeneric_w0_g3 threads=720 flops=28 loads=6 stores=1 stride=1048576",
                "vfilter_nongeneric_w0_g4 threads=85680 flops=26 loads=6 stores=1 stride=6480",
                "vfilter_nongeneric_w0_g5 threads=720 flops=30 loads=6 stores=1 stride=1048576",
            }));
}

TEST(SacPlanGolden, PaperGenericKernels) {
  const SacDownscaler sd = paper_downscaler(true);
  EXPECT_EQ(describe(sd.h_program()),
            (std::vector<std::string>{
                "hfilter_generic_w0_g0 threads=258120 flops=63 loads=18 stores=3 stride=1920",
                "hfilter_generic_w0_g1 threads=1080 flops=66 loads=18 stores=3 stride=1048576",
                "hfilter_generic_w1_g0 threads=777600 flops=4 loads=0 stores=1 stride=720",
            }));
  EXPECT_EQ(describe(sd.v_program()),
            (std::vector<std::string>{
                "vfilter_generic_w0_g0 threads=85680 flops=83 loads=24 stores=4 stride=6480",
                "vfilter_generic_w0_g1 threads=720 flops=89 loads=24 stores=4 stride=1048576",
                "vfilter_generic_w1_g0 threads=345600 flops=4 loads=0 stores=1 stride=720",
            }));
}

TEST(SacPlanGolden, PaperCudaSourceHashes) {
  const SacDownscaler ng = paper_downscaler(false);
  EXPECT_EQ(fnv1a(ng.h_program().cuda_source()), 7036935365394323111ull);
  EXPECT_EQ(fnv1a(ng.v_program().cuda_source()), 2242868337233573781ull);
  const SacDownscaler g = paper_downscaler(true);
  EXPECT_EQ(fnv1a(g.h_program().cuda_source()), 7873606714016749931ull);
  EXPECT_EQ(fnv1a(g.v_program().cuda_source()), 15236119321398993111ull);
}

// The host's walk order, unlike everything above, is the host's own:
// at paper geometry every kernel walks its last lattice dimension, the
// frame row, so consecutive items store next to each other. A boundary
// kernel whose lattice is one column wide walks down that column.
TEST(HostWalkGolden, PaperKernelsWalkTheFrameRow) {
  int rows = 0;
  int columns = 0;
  for (bool generic : {false, true}) {
    const SacDownscaler sd = paper_downscaler(generic);
    for (const CudaProgram* p : {&sd.h_program(), &sd.v_program()}) {
      for (const Step& s : p->steps()) {
        if (s.kind != Step::Kind::Kernels) continue;
        for (const GenKernel& k : s.group.kernels) {
          ASSERT_EQ(k.lattice.rank(), 2u) << k.name;
          const bool column = k.lattice.dims[1].extent == 1;
          EXPECT_EQ(k.walk_dim, column ? 0u : 1u) << k.name;
          (column ? columns : rows) += 1;
        }
      }
    }
  }
  EXPECT_EQ(rows, 14);
  EXPECT_EQ(columns, 2);
}

}  // namespace
}  // namespace saclo::sac_cuda
