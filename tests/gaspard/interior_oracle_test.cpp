// Differential oracle for the GASPARD tiler's interior/boundary split.
// A repetition point whose whole pattern lies inside the array gathers
// and scatters through precomputed linear offsets; every other point
// takes the modular walk. Over seeded random tilers — array, pattern
// and repetition ranks 1-3, negative origins, zero and negative fitting
// and paving entries, tiles that wrap around — the executed OpenCL
// application must equal the Array-OL reference evaluation. A third of
// the seeds draw the walk dimension's extent from 1, 2, kLanes - 1,
// kLanes, kLanes + 1 and 300, so that the host's blocks of lanes end
// mid-run and mix interior and boundary lanes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arrayol/model.hpp"
#include "core/fmt.hpp"
#include "gaspard/chain.hpp"
#include "support/pixels.hpp"
#include "support/random_tilers.hpp"

namespace saclo::gaspard {
namespace {

using testsupport::long_walk;
using testsupport::random_model;

/// Whether the tile of `p` at repetition point `rep` lies inside its
/// array in every dimension (the gather's interior case).
bool tile_inside(const aol::TiledPort& p, const Index& rep) {
  bool inside = true;
  for_each_index(p.pattern, [&](const Index& pat) {
    const Index fit = p.tiler.fitting.mv(pat);
    const Index ref = p.tiler.paving.mv(rep);
    for (std::size_t d = 0; d < fit.size(); ++d) {
      const std::int64_t v = p.tiler.origin[d] + ref[d] + fit[d];
      inside = inside && v >= 0 && v < p.port.shape[d];
    }
  });
  return inside;
}

/// Blocks of kLanes lanes along the walk dimension that hold both
/// interior and boundary lanes of some port.
int mixed_blocks(const aol::RepetitiveTask& task, std::size_t walk) {
  std::vector<aol::TiledPort> ports = task.inputs;
  ports.insert(ports.end(), task.outputs.begin(), task.outputs.end());
  int mixed = 0;
  for_each_index(task.repetition, [&](const Index& rep) {
    if (rep[walk] % gpu::kLanes != 0) return;  // one visit per block
    const std::int64_t n = std::min<std::int64_t>(gpu::kLanes, task.repetition[walk] - rep[walk]);
    for (const aol::TiledPort& p : ports) {
      int inside = 0;
      for (std::int64_t l = 0; l < n; ++l) {
        Index at = rep;
        at[walk] += l;
        inside += tile_inside(p, at) ? 1 : 0;
      }
      if (inside > 0 && inside < n) {
        ++mixed;
        return;
      }
    }
  });
  return mixed;
}

TEST(TilerInteriorOracle, RandomTilersMatchTheReferenceEvaluation) {
  int long_walks = 0;
  int multi_block_walks = 0;
  int mixed = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const aol::Model model = random_model(seed);
    const aol::RepetitiveTask& task = model.tasks()[0];
    std::string tilers;
    for (const aol::TiledPort& p : task.inputs) {
      tilers += cat(" ", p.port.name, p.port.shape.to_string(), " ", p.tiler.to_string());
    }
    tilers += cat(" out", task.outputs[0].port.shape.to_string(), " ",
                  task.outputs[0].tiler.to_string());
    SCOPED_TRACE(cat("seed ", seed, ": repetition ", task.repetition.to_string(), tilers));

    std::map<std::string, IntArray> inputs;
    std::int64_t salt = 0;
    for (const std::string& name : model.inputs()) {
      ++salt;
      inputs.emplace(name, IntArray::generate(model.array_shape(name), [&](const Index& i) {
                       std::int64_t h = salt;
                       for (std::int64_t x : i) h = h * 37 + x;
                       return h % 101 - 50;
                     }));
    }
    const auto expected = aol::evaluate(model, inputs);
    OpenClApplication app = OpenClApplication::build(model);
    const std::size_t walk = app.kernels()[0].walk_dim;
    if (long_walk(seed) && task.repetition.elements() > 1) {
      ASSERT_EQ(walk, task.repetition.rank() - 1);
      ++long_walks;
      multi_block_walks += task.repetition[walk] > gpu::kLanes ? 1 : 0;
      mixed += mixed_blocks(task, walk);
    }
    gpu::VirtualGpu gpu(gpu::gtx480(), 3, gpu::BackendKind::Host);
    gpu::opencl::CommandQueue queue(gpu);
    const auto actual = app.run(queue, testsupport::pixels_of(inputs), /*execute=*/true);
    ASSERT_EQ(actual.at("out"), expected.at("out"));
  }
  EXPECT_GE(long_walks, 60);
  EXPECT_GE(multi_block_walks, 20);
  EXPECT_GE(mixed, 80);
}

}  // namespace
}  // namespace saclo::gaspard
