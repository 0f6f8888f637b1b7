// Property tests for the transformation optimizer over randomized
// Array-OL geometries: every *accepted* rewrite (paving change, fusion,
// full cost-gated search) must preserve the ODT mapping — identical
// model outputs element for element — and every *rejected* candidate
// must carry a diagnostic naming the violated precondition. A rewritten
// IP run over a block of lanes must equal one call per lane, and the
// executed OpenCL application the reference evaluation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/config.hpp"
#include "core/fmt.hpp"
#include "gaspard/chain.hpp"
#include "opt/search.hpp"
#include "opt/transform.hpp"
#include "support/ip_lanes.hpp"
#include "support/pixels.hpp"
#include "support/tape_poison.hpp"

namespace saclo::opt {
namespace {

using apps::DownscalerConfig;

std::map<std::string, IntArray> random_inputs(const aol::Model& model, std::mt19937& rng) {
  std::uniform_int_distribution<std::int64_t> pixel(0, 255);
  std::map<std::string, IntArray> inputs;
  for (const std::string& in : model.inputs()) {
    inputs.emplace(in, IntArray::generate(model.array_shape(in),
                                          [&](const Index&) { return pixel(rng); }));
  }
  return inputs;
}

void expect_same_outputs(const aol::Model& before, const aol::Model& after, std::mt19937& rng,
                         const std::string& what) {
  const auto inputs = random_inputs(before, rng);
  const auto ref = aol::evaluate(before, inputs);
  const auto got = aol::evaluate(after, inputs);
  ASSERT_EQ(before.outputs(), after.outputs()) << what;
  for (const std::string& out : before.outputs()) {
    EXPECT_EQ(ref.at(out), got.at(out)) << what << ": output '" << out << "' diverged";
  }
}

/// A random valid downscaler geometry: the width must be a multiple of
/// the horizontal paving (8) and the height of the vertical paving (9).
DownscalerConfig random_config(std::mt19937& rng) {
  DownscalerConfig cfg = DownscalerConfig::tiny();
  std::uniform_int_distribution<std::int64_t> h_mult(1, 4);
  std::uniform_int_distribution<std::int64_t> w_mult(1, 5);
  cfg.height = cfg.v.paving * 2 * h_mult(rng);  // 18..72
  cfg.width = cfg.h.paving * 2 * w_mult(rng);   // 16..80
  cfg.validate();
  return cfg;
}

std::vector<std::int64_t> dividing_factors(std::int64_t extent) {
  std::vector<std::int64_t> factors;
  for (std::int64_t k = 2; k <= extent; ++k) {
    if (extent % k == 0) factors.push_back(k);
  }
  return factors;
}

TEST(OptProperty, AcceptedPavingChangesPreserveOdtMappingOnRandomGeometries) {
  std::mt19937 rng(20110516);  // the paper's conference date
  for (int trial = 0; trial < 12; ++trial) {
    const DownscalerConfig cfg = random_config(rng);
    const aol::Model model = apps::build_single_channel_model(cfg);
    const std::string task = trial % 2 == 0 ? "yhf" : "yvf";
    const Shape rep = task == "yhf" ? cfg.h_repetition() : cfg.v_repetition();
    const std::size_t dim = std::uniform_int_distribution<std::size_t>(0, rep.rank() - 1)(rng);
    const std::vector<std::int64_t> factors = dividing_factors(rep[dim]);
    if (factors.empty()) continue;
    const std::int64_t factor =
        factors[std::uniform_int_distribution<std::size_t>(0, factors.size() - 1)(rng)];

    const std::string what = cat(cfg.height, "x", cfg.width, " ", task, " dim ", dim,
                                 " factor ", factor);
    const RewriteResult r = try_change_paving(model, task, dim, factor);
    ASSERT_TRUE(r.legality.ok) << what << ": " << r.legality.reason;
    expect_same_outputs(model, *r.model, rng, what);
  }
}

TEST(OptProperty, IllegalPavingChangesAreRejectedWithDiagnostics) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const DownscalerConfig cfg = random_config(rng);
    const aol::Model model = apps::build_single_channel_model(cfg);
    const Shape rep = cfg.h_repetition();
    const std::size_t dim = std::uniform_int_distribution<std::size_t>(0, rep.rank() - 1)(rng);
    // A factor beyond the extent can never divide it.
    const std::int64_t bad = rep[dim] + 1;
    const RewriteResult r = try_change_paving(model, "yhf", dim, bad);
    EXPECT_FALSE(r.legality.ok);
    EXPECT_FALSE(r.legality.reason.empty()) << "rejection must carry a diagnostic";
    EXPECT_FALSE(r.model.has_value());
  }
}

TEST(OptProperty, FusionRejectionsCarryDiagnostics) {
  const aol::Model model = apps::build_single_channel_model(DownscalerConfig::tiny());
  // Not an intermediate: model inputs/outputs and unknown names all
  // name a reason instead of silently failing.
  for (const std::string arr : {"frame_y", "out_y", "nonexistent"}) {
    const RewriteResult r = try_fuse(model, arr);
    EXPECT_FALSE(r.legality.ok) << arr;
    EXPECT_FALSE(r.legality.reason.empty()) << arr << ": rejection must carry a diagnostic";
    EXPECT_FALSE(r.model.has_value()) << arr;
  }
}

void expect_same_tasks(const aol::Model& a, const aol::Model& b, const std::string& what) {
  ASSERT_EQ(a.tasks().size(), b.tasks().size()) << what;
  for (std::size_t t = 0; t < a.tasks().size(); ++t) {
    const aol::RepetitiveTask& x = a.tasks()[t];
    const aol::RepetitiveTask& y = b.tasks()[t];
    EXPECT_EQ(x.name, y.name) << what;
    EXPECT_EQ(x.repetition, y.repetition) << what << ": " << x.name;
    EXPECT_EQ(x.op, y.op) << what << ": " << x.name;
    ASSERT_EQ(x.inputs.size(), y.inputs.size()) << what << ": " << x.name;
    ASSERT_EQ(x.outputs.size(), y.outputs.size()) << what << ": " << x.name;
    auto same_port = [&](const aol::TiledPort& p, const aol::TiledPort& q) {
      EXPECT_EQ(p.port.name, q.port.name) << what << ": " << x.name;
      EXPECT_EQ(p.pattern, q.pattern) << what << ": " << x.name << " " << p.port.name;
      EXPECT_EQ(p.tiler, q.tiler) << what << ": " << x.name << " " << p.port.name;
    };
    for (std::size_t i = 0; i < x.inputs.size(); ++i) same_port(x.inputs[i], y.inputs[i]);
    for (std::size_t i = 0; i < x.outputs.size(); ++i) same_port(x.outputs[i], y.outputs[i]);
  }
}

TEST(OptProperty, FusionWithReusedInverseMapsMatchesFreshFusion) {
  // One cache across every case: maps built for earlier geometries,
  // channels and producer splits must never leak into a later verdict.
  std::mt19937 rng(1920);
  InverseMapCache shared;
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const DownscalerConfig cfg = random_config(rng);
    const bool rgb = trial % 2 == 1;
    const aol::Model base =
        rgb ? apps::build_downscaler_model(cfg) : apps::build_single_channel_model(cfg);
    const std::vector<std::string> channels =
        rgb ? std::vector<std::string>{"b", "g", "r"} : std::vector<std::string>{"y"};
    for (const std::string& ch : channels) {
      // The unsplit model, then every legal split of the consumer (the
      // producer's map is reused) and of the producer (a new map).
      std::vector<std::pair<std::string, aol::Model>> variants{{"unsplit", base}};
      for (const auto& [task, rep] : {std::pair{ch + "vf", cfg.v_repetition()},
                                      std::pair{ch + "hf", cfg.h_repetition()}}) {
        for (std::size_t dim = 0; dim < rep.rank(); ++dim) {
          for (std::int64_t factor : dividing_factors(rep[dim])) {
            if (factor > 6) break;
            RewriteResult pv = try_change_paving(base, task, dim, factor);
            ASSERT_TRUE(pv.legality.ok) << pv.legality.reason;
            variants.emplace_back(cat(task, " dim ", dim, " by ", factor), std::move(*pv.model));
          }
        }
      }
      for (const auto& [split, model] : variants) {
        const std::string what =
            cat(cfg.height, "x", cfg.width, " fuse mid_", ch, " after ", split);
        const RewriteResult reused = try_fuse(model, "mid_" + ch, &shared);
        const RewriteResult fresh = try_fuse(model, "mid_" + ch);
        ASSERT_EQ(reused.legality.ok, fresh.legality.ok) << what;
        EXPECT_EQ(reused.legality.reason, fresh.legality.reason) << what;
        if (fresh.legality.ok) {
          ++accepted;
          expect_same_tasks(*fresh.model, *reused.model, what);
        } else {
          ++rejected;
        }
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

/// Runs the IP of `task` on the tape VM once over n lanes of random rows,
/// then once per lane on that lane's column; every output element must
/// agree.
void expect_block_equals_lanes(const aol::RepetitiveTask& task, std::size_t n,
                               std::mt19937& rng, const std::string& what) {
  std::size_t in_total = 0;
  std::size_t out_total = 0;
  for (const aol::TiledPort& p : task.inputs) in_total += p.pattern.elements();
  for (const aol::TiledPort& p : task.outputs) out_total += p.pattern.elements();
  std::uniform_int_distribution<std::int64_t> value(-1000, 1000);
  std::vector<std::int64_t> in(in_total * n);
  for (std::int64_t& v : in) v = value(rng);
  std::vector<std::int64_t> out(out_total * n, -7);
  testsupport::run_ip_lanes(task.op, in, out, n);
  std::vector<std::int64_t> lane_in(in_total);
  std::vector<std::int64_t> lane_out(out_total);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t e = 0; e < in_total; ++e) lane_in[e] = in[e * n + l];
    testsupport::run_ip_lanes(task.op, lane_in, lane_out, 1);
    for (std::size_t e = 0; e < out_total; ++e) {
      ASSERT_EQ(out[e * n + l], lane_out[e])
          << what << ": " << task.name << " lane " << l << " of " << n << ", output row " << e;
    }
  }
}

/// Every task's IP over blocks of 1, 2, kLanes - 1, kLanes and kLanes + 1
/// lanes, and the application executed on the host backend, against
/// the reference evaluation of `reference` (the model before rewriting).
void expect_lanes_and_execution(const aol::Model& model, const aol::Model& reference,
                                std::mt19937& rng, const std::string& what) {
  for (const aol::RepetitiveTask& task : model.tasks()) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{gpu::kLanes - 1},
                                std::size_t{gpu::kLanes}, std::size_t{gpu::kLanes + 1}}) {
      expect_block_equals_lanes(task, n, rng, what);
    }
  }
  const auto inputs = random_inputs(reference, rng);
  const auto expected = aol::evaluate(reference, inputs);
  gaspard::OpenClApplication app = gaspard::OpenClApplication::build(model);
  gpu::VirtualGpu gpu(gpu::gtx480(), 2, gpu::BackendKind::Host);
  gpu::opencl::CommandQueue queue(gpu);
  const auto actual = app.run(queue, testsupport::pixels_of(inputs), /*execute=*/true);
  for (const std::string& out : reference.outputs()) {
    EXPECT_EQ(actual.at(out), expected.at(out)) << what << ": output '" << out << "' diverged";
  }
}

TEST(OptProperty, RewrittenOpsRunBlocksOfLanesAsOneLaneEach) {
  const testsupport::PoisonedTapeScratch poisoned;
  std::mt19937 rng(2011);
  int splits = 0;
  int double_splits = 0;
  int fusions = 0;
  int merges = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const DownscalerConfig cfg = random_config(rng);
    const bool rgb = trial % 2 == 1;
    const aol::Model base =
        rgb ? apps::build_downscaler_model(cfg) : apps::build_single_channel_model(cfg);
    const std::string ch = rgb ? "g" : "y";
    const std::string geometry = cat(cfg.height, "x", cfg.width, rgb ? " rgb" : " y");
    std::vector<std::pair<std::string, aol::Model>> accepted;
    // Splits of either filter, and a second split of the first's result
    // (a combinator nested in one of its own kind).
    for (const auto& [task, rep] : {std::pair{ch + "hf", cfg.h_repetition()},
                                    std::pair{ch + "vf", cfg.v_repetition()}}) {
      for (std::size_t dim = 0; dim < rep.rank(); ++dim) {
        const std::vector<std::int64_t> factors = dividing_factors(rep[dim]);
        if (factors.empty()) continue;
        const std::int64_t factor = factors[rng() % std::min<std::size_t>(factors.size(), 4)];
        RewriteResult once = try_change_paving(base, task, dim, factor);
        ASSERT_TRUE(once.legality.ok) << once.legality.reason;
        ++splits;
        const std::vector<std::int64_t> again = dividing_factors(rep[dim] / factor);
        if (!again.empty()) {
          RewriteResult twice = try_change_paving(*once.model, task, dim, again[0]);
          ASSERT_TRUE(twice.legality.ok) << twice.legality.reason;
          ++double_splits;
          accepted.emplace_back(cat(task, " split ", factor, " then ", again[0], " on dim ", dim),
                                std::move(*twice.model));
        }
        accepted.emplace_back(cat(task, " split ", factor, " on dim ", dim),
                              std::move(*once.model));
      }
    }
    // The fusion of the channel after each split that allows it.
    const std::size_t split_models = accepted.size();
    for (std::size_t k = 0; k < split_models; ++k) {
      RewriteResult fused = try_fuse(accepted[k].second, "mid_" + ch);
      if (!fused.legality.ok) continue;
      ++fusions;
      accepted.emplace_back(cat(accepted[k].first, ", fuse mid_", ch), std::move(*fused.model));
    }
    if (rgb) {
      RewriteResult merged = try_merge(base, "bhf", "rhf");
      ASSERT_TRUE(merged.legality.ok) << merged.legality.reason;
      ++merges;
      accepted.emplace_back("merge bhf + rhf", std::move(*merged.model));
    }
    // Whatever the cost-gated search adopts at O2.
    SearchOptions o2;
    o2.level = 2;
    accepted.emplace_back("O2", optimize(base, o2).model);
    for (const auto& [rewrite, model] : accepted) {
      expect_lanes_and_execution(model, base, rng, cat(geometry, " ", rewrite));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(splits, 12);
  EXPECT_GE(double_splits, 6);
  EXPECT_GE(fusions, 3);
  EXPECT_GE(merges, 3);
}

/// An IP whose output row o is sum_e weights[o][e] * input row e, lane
/// by lane. Distinct weights make a row moved to the wrong place change
/// the outputs.
aol::ElementaryOp linear_op(const std::string& name,
                            const std::vector<std::vector<std::int64_t>>& weights) {
  aol::IpBuilder ip;
  for (const std::vector<std::int64_t>& row : weights) {
    aol::IpValue acc = ip.lit(0);
    for (std::size_t e = 0; e < row.size(); ++e) {
      acc = acc + ip.in(static_cast<std::int64_t>(e)) * row[e];
    }
    ip.out(acc);
  }
  return ip.finish(name);
}

aol::TiledPort line_port(const std::string& array, std::int64_t extent, std::int64_t pattern,
                         std::int64_t paving) {
  aol::TiledPort p;
  p.port = {array, Shape{extent}};
  p.pattern = Shape{pattern};
  p.tiler.origin = {0};
  p.tiler.fitting = IntMat{{1}};
  p.tiler.paving = IntMat{{paving}};
  return p;
}

/// p(x, y) -> mid over 2 * reps instances, then c(mid, z) -> (o1, o2)
/// over reps: both tasks have two input ports and c two output ports.
/// p reads y through overlapping tiles that wrap around its end.
aol::Model two_port_model(std::int64_t reps) {
  aol::Model m("TwoPort");
  const std::int64_t wide = 2 * reps;
  for (const auto& [name, extent] : {std::pair{"x", 2 * wide}, std::pair{"y", wide},
                                     std::pair{"mid", wide}, std::pair{"z", reps},
                                     std::pair{"o1", reps}, std::pair{"o2", wide}}) {
    m.add_array(name, Shape{extent});
  }
  m.mark_input("x");
  m.mark_input("y");
  m.mark_input("z");
  m.mark_output("o1");
  m.mark_output("o2");
  aol::RepetitiveTask p;
  p.name = "p";
  p.repetition = Shape{wide};
  p.inputs = {line_port("x", 2 * wide, 2, 2), line_port("y", wide, 3, 1)};
  p.outputs = {line_port("mid", wide, 1, 1)};
  p.op = linear_op("p_ip", {{3, -1, 5, 1, -2}});
  m.add_task(std::move(p));
  aol::RepetitiveTask c;
  c.name = "c";
  c.repetition = Shape{reps};
  c.inputs = {line_port("mid", wide, 2, 2), line_port("z", reps, 1, 1)};
  c.outputs = {line_port("o1", reps, 1, 1), line_port("o2", wide, 2, 2)};
  c.op = linear_op("c_ip", {{1, -2, 7}, {4, 0, 1}, {-1, 3, 2}});
  m.add_task(std::move(c));
  m.validate();
  return m;
}

TEST(OptProperty, RewrittenMultiPortOpsRunBlocksOfLanesAsOneLaneEach) {
  // Splits pack two input and two output ports per instance; fusions
  // pack the producer's two inputs and append the consumer's other one;
  // the fused task split again packs three inputs. The walk extents put
  // blocks past one kLanes block and mix interior and wrapping lanes.
  const testsupport::PoisonedTapeScratch poisoned;
  std::mt19937 rng(2016);
  int multi_port_splits = 0;
  int fusions = 0;
  int fused_splits = 0;
  for (const std::int64_t reps : {1, 6, 64, 65, 150}) {
    const aol::Model base = two_port_model(reps);
    std::vector<std::pair<std::string, aol::Model>> accepted{{"unchanged", base}};
    for (const std::int64_t factor : dividing_factors(reps)) {
      if (factor > 10) break;
      RewriteResult split = try_change_paving(base, "c", 0, factor);
      ASSERT_TRUE(split.legality.ok) << split.legality.reason;
      ++multi_port_splits;
      accepted.emplace_back(cat("c split ", factor), std::move(*split.model));
    }
    RewriteResult split_p = try_change_paving(base, "p", 0, 2);
    ASSERT_TRUE(split_p.legality.ok) << split_p.legality.reason;
    ++multi_port_splits;
    accepted.emplace_back("p split 2", std::move(*split_p.model));
    const std::size_t split_models = accepted.size();
    for (std::size_t k = 0; k < split_models; ++k) {
      RewriteResult fused = try_fuse(accepted[k].second, "mid");
      ASSERT_TRUE(fused.legality.ok) << accepted[k].first << ": " << fused.legality.reason;
      ++fusions;
      const aol::RepetitiveTask& f = fused.model->tasks().back();
      const std::int64_t extent = f.repetition[0];
      const std::string fused_name = f.name;
      for (const std::int64_t factor : dividing_factors(extent)) {
        if (factor > 5) break;
        RewriteResult again = try_change_paving(*fused.model, fused_name, 0, factor);
        ASSERT_TRUE(again.legality.ok) << again.legality.reason;
        ++fused_splits;
        accepted.emplace_back(cat(accepted[k].first, ", fuse mid, split ", factor),
                              std::move(*again.model));
      }
      accepted.emplace_back(cat(accepted[k].first, ", fuse mid"), std::move(*fused.model));
    }
    for (const auto& [rewrite, model] : accepted) {
      expect_lanes_and_execution(model, base, rng, cat("reps ", reps, " ", rewrite));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(multi_port_splits, 10);
  EXPECT_GE(fusions, 15);
  EXPECT_GE(fused_splits, 10);
}

TEST(OptProperty, CostGatedSearchPreservesOdtMappingOnRandomGeometries) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 6; ++trial) {
    const DownscalerConfig cfg = random_config(rng);
    const aol::Model model = trial % 2 == 0 ? apps::build_single_channel_model(cfg)
                                            : apps::build_downscaler_model(cfg);
    for (int level : {1, 2}) {
      SearchOptions options;
      options.level = level;
      const OptResult result = optimize(model, options);
      const std::string what =
          cat(cfg.height, "x", cfg.width, " O", level, " (", result.rewrites.size(),
              " rewrites)");
      // The cost gate may adopt nothing on a small geometry; whatever
      // it adopted, the optimized model must still compute the same
      // function — and never with *more* tasks.
      EXPECT_LE(result.model.tasks().size(), model.tasks().size()) << what;
      expect_same_outputs(model, result.model, rng, what);
    }
  }
}

}  // namespace
}  // namespace saclo::opt
