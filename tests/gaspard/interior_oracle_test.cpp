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
#include <random>
#include <string>
#include <vector>

#include "arrayol/model.hpp"
#include "core/fmt.hpp"
#include "gaspard/chain.hpp"

namespace saclo::gaspard {
namespace {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed) {}
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
  }

 private:
  std::mt19937_64 gen_;
};

Shape random_shape(Rng& rng, std::int64_t rank, std::int64_t lo, std::int64_t hi) {
  Index d;
  for (std::int64_t k = 0; k < rank; ++k) d.push_back(rng.uniform(lo, hi));
  return Shape(d);
}

IntMat random_matrix(Rng& rng, std::size_t rows, std::size_t cols, std::int64_t bound) {
  IntMat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m.at(r, c) = rng.uniform(-bound, bound);
  }
  return m;
}

/// An input port with an arbitrary tiler: tiles overlap, leave holes and
/// wrap around freely.
aol::TiledPort random_input(Rng& rng, const std::string& name, const Shape& repetition) {
  aol::TiledPort p;
  const Shape array = random_shape(rng, rng.uniform(1, 3), 2, 8);
  p.port = {name, array};
  p.pattern = random_shape(rng, rng.uniform(1, 2), 1, 4);
  p.tiler.fitting = random_matrix(rng, array.rank(), p.pattern.rank(), 2);
  p.tiler.paving = random_matrix(rng, array.rank(), repetition.rank(), 3);
  for (std::size_t d = 0; d < array.rank(); ++d) p.tiler.origin.push_back(rng.uniform(-9, 9));
  return p;
}

/// An output port whose tiler is an exact partition (single
/// assignment): one array dimension holds repetition x pattern, the
/// others one repetition dimension each; origins, paving and fitting
/// signs are random, so tiles straddle the array edges and wrap.
aol::TiledPort random_output(Rng& rng, const Shape& repetition) {
  aol::TiledPort p;
  const std::int64_t pattern = rng.uniform(1, 4);
  const std::size_t carrier = static_cast<std::size_t>(
      rng.uniform(0, static_cast<std::int64_t>(repetition.rank()) - 1));
  Index dims = repetition.dims();
  dims[carrier] *= pattern;
  p.port = {"out", Shape(dims)};
  p.pattern = Shape{pattern};
  p.tiler.fitting = IntMat(dims.size(), 1);
  p.tiler.fitting.at(carrier, 0) = rng.uniform(0, 1) != 0 ? 1 : -1;
  p.tiler.paving = IntMat(dims.size(), repetition.rank());
  for (std::size_t d = 0; d < dims.size(); ++d) {
    const std::int64_t sign = rng.uniform(0, 1) != 0 ? 1 : -1;
    p.tiler.paving.at(d, d) = sign * (d == carrier ? pattern : 1);
    p.tiler.origin.push_back(rng.uniform(-2 * dims[d], 2 * dims[d]));
  }
  return p;
}

/// Walk-dimension extents around the host's block of kLanes lanes.
constexpr std::int64_t kWalkExtents[] = {1, 2, gpu::kLanes - 1, gpu::kLanes, gpu::kLanes + 1, 300};

/// Whether the seed draws its walk dimension's extent from kWalkExtents.
bool long_walk(std::uint64_t seed) { return seed % 3 == 0; }

aol::Model random_model(std::uint64_t seed) {
  Rng rng(seed);
  aol::RepetitiveTask task;
  task.name = "t";
  task.repetition = random_shape(rng, rng.uniform(1, 3), 1, 5);
  if (long_walk(seed)) {
    // The last dimension, when its extent is above 1: random_output's
    // step along it moves the output by 1 or |pattern| elements, and
    // along any other dimension by at least the last extent times that.
    const std::int64_t extent = kWalkExtents[rng.uniform(0, 5)];
    Index dims = task.repetition.dims();
    dims.back() = extent;
    task.repetition = extent == 1 ? Shape{1} : Shape(dims);
  }
  const std::int64_t inputs = rng.uniform(1, 2);
  for (std::int64_t k = 0; k < inputs; ++k) {
    task.inputs.push_back(random_input(rng, cat("in", k), task.repetition));
  }
  task.outputs.push_back(random_output(rng, task.repetition));
  std::int64_t in_elems = 0;
  for (const aol::TiledPort& in : task.inputs) in_elems += in.pattern.elements();
  const std::int64_t out_elems = task.outputs[0].pattern.elements();
  // Every output element depends on every input element and on its
  // position, so a misplaced gather or scatter shows in the result.
  task.op.name = "mix";
  task.op.compute = [](std::span<const std::int64_t> in, std::span<std::int64_t> out,
                       std::size_t n) {
    for (std::size_t k = 0; k < out.size() / n; ++k) {
      for (std::size_t l = 0; l < n; ++l) {
        std::int64_t acc = static_cast<std::int64_t>(k) * 7;
        for (std::size_t j = 0; j < in.size() / n; ++j) {
          acc += in[j * n + l] * static_cast<std::int64_t>((j + k) % 5 + 1);
        }
        out[k * n + l] = acc;
      }
    }
  };
  task.op.flops_per_invocation = static_cast<double>(in_elems * out_elems * 2);
  task.op.c_body = "/* mix */";

  aol::Model model(cat("oracle_", seed));
  for (const aol::TiledPort& in : task.inputs) {
    model.add_array(in.port.name, in.port.shape);
    model.mark_input(in.port.name);
  }
  model.add_array("out", task.outputs[0].port.shape);
  model.mark_output("out");
  model.add_task(std::move(task));
  return model;
}

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
    const auto actual = app.run(queue, inputs, /*execute=*/true);
    ASSERT_EQ(actual.at("out"), expected.at("out"));
  }
  EXPECT_GE(long_walks, 60);
  EXPECT_GE(multi_block_walks, 20);
  EXPECT_GE(mixed, 80);
}

}  // namespace
}  // namespace saclo::gaspard
