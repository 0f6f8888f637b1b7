// Golden output of the SaC -> CUDA plan at the paper's geometry
// (1080x1920): per kernel the thread count and the simulated cost
// descriptor, and a hash of the emitted CUDA C, for the generic and
// non-generic H/V filters; the chain program the frame loop runs plans
// exactly the H kernels followed by the V kernels. Any speed-up of how
// a planned kernel executes on the host must leave all of these
// untouched: they are what the simulated clock is made of.

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

/// describe() without the kernel names.
std::vector<std::string> descriptors(const CudaProgram& p) {
  std::vector<std::string> out = describe(p);
  for (std::string& line : out) line.erase(0, line.find(' ') + 1);
  return out;
}

TEST(SacPlanGolden, PaperNonGenericKernels) {
  const auto filters = paper_downscaler(false).filter_programs();
  EXPECT_EQ(describe(filters.h),
            (std::vector<std::string>{
                "hfilter_nongeneric_w0_g0 threads=259200 flops=24 loads=6 stores=1 stride=1920",
                "hfilter_nongeneric_w0_g1 threads=259200 flops=26 loads=6 stores=1 stride=1920",
                "hfilter_nongeneric_w0_g2 threads=258120 flops=26 loads=6 stores=1 stride=1920",
                "hfilter_nongeneric_w0_g3 threads=1080 flops=29 loads=6 stores=1 stride=1048576",
            }));
  EXPECT_EQ(describe(filters.v),
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
  const auto filters = paper_downscaler(true).filter_programs();
  EXPECT_EQ(describe(filters.h),
            (std::vector<std::string>{
                "hfilter_generic_w0_g0 threads=258120 flops=63 loads=18 stores=3 stride=1920",
                "hfilter_generic_w0_g1 threads=1080 flops=66 loads=18 stores=3 stride=1048576",
                "hfilter_generic_w1_g0 threads=777600 flops=4 loads=0 stores=1 stride=720",
            }));
  EXPECT_EQ(describe(filters.v),
            (std::vector<std::string>{
                "vfilter_generic_w0_g0 threads=85680 flops=83 loads=24 stores=4 stride=6480",
                "vfilter_generic_w0_g1 threads=720 flops=89 loads=24 stores=4 stride=1048576",
                "vfilter_generic_w1_g0 threads=345600 flops=4 loads=0 stores=1 stride=720",
            }));
}

TEST(SacPlanGolden, PaperCudaSourceHashes) {
  const auto ng = paper_downscaler(false).filter_programs();
  EXPECT_EQ(fnv1a(ng.h.cuda_source()), 7036935365394323111ull);
  EXPECT_EQ(fnv1a(ng.v.cuda_source()), 2242868337233573781ull);
  // The generic drivers print their compiled host loop nests.
  const auto g = paper_downscaler(true).filter_programs();
  EXPECT_EQ(fnv1a(g.h.cuda_source()), 6644077974461517294ull);
  EXPECT_EQ(fnv1a(g.v.cuda_source()), 17949238139762448611ull);
}

// The chain program: the same kernels as H followed by V (only their
// names change), every step tagged with the filter it came from, and
// host blocks only for the generic tilers.
TEST(SacPlanGolden, PaperChainProgramIsHThenV) {
  for (bool generic : {false, true}) {
    const SacDownscaler sd = paper_downscaler(generic);
    const auto filters = sd.filter_programs();
    std::vector<std::string> expected = descriptors(filters.h);
    for (std::string& line : descriptors(filters.v)) expected.push_back(std::move(line));
    const CudaProgram& chain = sd.program();
    EXPECT_EQ(descriptors(chain), expected) << "generic=" << generic;
    EXPECT_EQ(chain.host_block_count(), generic ? 2 : 0);
    EXPECT_EQ(chain.compiled_host_block_count(), chain.host_block_count());
    EXPECT_EQ(sd.h_kernels(), filters.h.kernel_count());
    EXPECT_EQ(sd.v_kernels(), filters.v.kernel_count());
    const std::string kind = generic ? "generic" : "nongeneric";
    for (const Step& s : chain.steps()) {
      EXPECT_TRUE(s.origin == "hfilter_" + kind || s.origin == "vfilter_" + kind) << s.origin;
      if (s.kind != Step::Kind::Kernels) continue;
      for (const GenKernel& k : s.group.kernels) {
        EXPECT_EQ(k.name.rfind("downscale_" + kind + "_w", 0), 0u) << k.name;
      }
    }
  }
}

// The host's walk order, unlike everything above, is the host's own:
// at paper geometry every kernel walks its last lattice dimension, the
// frame row, so consecutive items store next to each other. A boundary
// kernel whose lattice is one column wide walks down that column.
TEST(HostWalkGolden, PaperKernelsWalkTheFrameRow) {
  int rows = 0;
  int columns = 0;
  for (bool generic : {false, true}) {
    const auto filters = paper_downscaler(generic).filter_programs();
    for (const CudaProgram* p : {&filters.h, &filters.v}) {
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
