// Golden output of the GASPARD compile path at the paper's geometry
// (1080x1920 RGB): the optimizer's adopted rewrite lists at O1/O2, the
// diagnosis of the first refused direct fusion, and a hash of the
// generated OpenCL source at O0/O1/O2. Any speed-up of the legality
// checks or of the search must leave all of these untouched.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/config.hpp"
#include "apps/downscaler/pipelines.hpp"
#include "core/fmt.hpp"
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

// The emitted text itself is compiled and run by emitted_source_tests;
// these hashes only flag that it changed.
TEST(CompileGolden, PaperOpenClSourceHashes) {
  EXPECT_EQ(fnv1a(paper_downscaler(0).application().opencl_source()),
            382140975747997796ull);
  EXPECT_EQ(fnv1a(paper_downscaler(1).application().opencl_source()),
            4549115532979077338ull);
  EXPECT_EQ(fnv1a(paper_downscaler(2).application().opencl_source()),
            961832261875330725ull);
}

/// One kernel's cost descriptor: name, then loads, stores and flops per
/// thread.
struct KernelCostRow {
  std::string kernel;
  double loads;
  double stores;
  double flops;

  bool operator==(const KernelCostRow&) const = default;
};

std::ostream& operator<<(std::ostream& os, const KernelCostRow& r) {
  return os << r.kernel << " loads=" << r.loads << " stores=" << r.stores
            << " flops=" << r.flops;
}

std::vector<KernelCostRow> cost_rows(int opt_level) {
  const GaspardDownscaler gd = paper_downscaler(opt_level);
  std::vector<KernelCostRow> rows;
  for (const gaspard::TaskKernel& k : gd.application().kernels()) {
    rows.push_back({k.name, k.cost.global_loads_per_thread, k.cost.global_stores_per_thread,
                    k.cost.flops_per_thread});
  }
  return rows;
}

// The simulated timings of every GASPARD route follow from these
// descriptors; a change to how an IP is written or composed must leave
// them as they are.
TEST(CompileGolden, PaperKernelCostDescriptors) {
  std::vector<KernelCostRow> o0;
  for (const char* ch : {"b", "g", "r"}) {
    o0.push_back({cat("KRN_", ch, "hf"), 11, 3, 83});
    o0.push_back({cat("KRN_", ch, "vf"), 13, 4, 104});
  }
  EXPECT_EQ(cost_rows(0), o0);
  std::vector<KernelCostRow> o1;
  for (const char* ch : {"b", "g", "r"}) {
    o1.push_back({cat("KRN_", ch, "hf_", ch, "vf"), 143, 12, 1079});
  }
  EXPECT_EQ(cost_rows(1), o1);
  const std::vector<KernelCostRow> o2{{"KRN_rhf_rvf_bhf_bvf_ghf_gvf", 429, 36, 3237}};
  EXPECT_EQ(cost_rows(2), o2);
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
