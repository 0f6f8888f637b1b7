// Property tests for the transformation optimizer over randomized
// Array-OL geometries: every *accepted* rewrite (paving change, fusion,
// full cost-gated search) must preserve the ODT mapping — identical
// model outputs element for element — and every *rejected* candidate
// must carry a diagnostic naming the violated precondition.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/config.hpp"
#include "core/fmt.hpp"
#include "opt/search.hpp"
#include "opt/transform.hpp"

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
    EXPECT_EQ(x.op.c_body, y.op.c_body) << what << ": " << x.name;
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
