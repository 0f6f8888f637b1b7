// Golden output of the GASPARD compile path at the paper's geometry
// (1080x1920 RGB): the optimizer's adopted rewrite lists at O1/O2, the
// diagnosis of the first refused direct fusion, and a hash of the
// generated OpenCL source at O0/O1/O2. Any speed-up of the legality
// checks or of the search must leave all of these untouched.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/config.hpp"
#include "apps/downscaler/pipelines.hpp"
#include "opt/search.hpp"
#include "opt/transform.hpp"

namespace saclo::opt {
namespace {

using apps::DownscalerConfig;
using apps::GaspardDownscaler;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

GaspardDownscaler paper_downscaler(int opt_level) {
  GaspardDownscaler::Options opts;
  opts.opt_level = opt_level;
  return GaspardDownscaler(DownscalerConfig::paper(), opts);
}

std::vector<std::string> describe(const std::vector<AppliedRewrite>& rewrites) {
  std::vector<std::string> out;
  for (const AppliedRewrite& r : rewrites) out.push_back(r.kind + ": " + r.detail);
  return out;
}

std::vector<std::string> fusion_rewrites() {
  std::vector<std::string> out;
  for (const char* ch : {"b", "g", "r"}) {
    out.push_back(std::string("paving_change: split repetition dim 1 of '") + ch + "vf' by 3");
    out.push_back(std::string("fuse: fused producer of 'mid_") + ch + "' into its consumer");
  }
  return out;
}

TEST(CompileGolden, PaperO1RewriteList) {
  const GaspardDownscaler gd = paper_downscaler(1);
  EXPECT_EQ(describe(gd.rewrites()), fusion_rewrites());
  EXPECT_EQ(gd.kernel_count(), 3);
}

TEST(CompileGolden, PaperO2RewriteList) {
  const GaspardDownscaler gd = paper_downscaler(2);
  std::vector<std::string> expected = fusion_rewrites();
  expected.push_back("merge: merged 'bhf_bvf' and 'ghf_gvf'");
  expected.push_back("merge: merged 'rhf_rvf' and 'bhf_bvf_ghf_gvf'");
  EXPECT_EQ(describe(gd.rewrites()), expected);
  EXPECT_EQ(gd.kernel_count(), 1);
}

TEST(CompileGolden, PaperDirectFusionRejection) {
  const aol::Model model = apps::build_downscaler_model(DownscalerConfig::paper());
  const RewriteResult r = try_fuse(model, "mid_b");
  EXPECT_FALSE(r.legality.ok);
  EXPECT_EQ(r.legality.reason,
            "fuse bhf -> bvf over 'mid_b': incompatible paving/fitting — pattern slot depends "
            "on the repetition index at [0,1], pattern [0]");
}

TEST(CompileGolden, PaperOpenClSourceHashes) {
  EXPECT_EQ(fnv1a(paper_downscaler(0).application().opencl_source()),
            5501345623787706449ull);
  EXPECT_EQ(fnv1a(paper_downscaler(1).application().opencl_source()),
            13092151995356664357ull);
  EXPECT_EQ(fnv1a(paper_downscaler(2).application().opencl_source()),
            16249790246316034401ull);
}

// Every paper task's host body walks its last repetition dimension,
// the one that steps along the output rows.
TEST(HostWalkGolden, PaperTasksWalkTheirLastRepetitionDimension) {
  for (int level : {0, 1, 2}) {
    const GaspardDownscaler gd = paper_downscaler(level);
    const gaspard::OpenClApplication& app = gd.application();
    for (const gaspard::TaskKernel& k : app.kernels()) {
      EXPECT_EQ(k.walk_dim, app.model().tasks()[k.task].repetition.rank() - 1)
          << "O" << level << " " << k.name;
    }
  }
}

}  // namespace
}  // namespace saclo::opt
