#pragma once

// Seeded random single-task Array-OL models for the GASPARD oracles:
// array, pattern and repetition ranks 1-3, negative origins, zero and
// negative fitting and paving entries, tiles that wrap around. A third
// of the seeds draw the walk dimension's extent from 1, 2, kLanes - 1,
// kLanes, kLanes + 1 and 300.

#include <cstdint>
#include <random>
#include <string>

#include "arrayol/model.hpp"
#include "core/fmt.hpp"
#include "gpu/backend.hpp"

namespace saclo::testsupport {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed) {}
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
  }

 private:
  std::mt19937_64 gen_;
};

inline Shape random_shape(Rng& rng, std::int64_t rank, std::int64_t lo, std::int64_t hi) {
  Index d;
  for (std::int64_t k = 0; k < rank; ++k) d.push_back(rng.uniform(lo, hi));
  return Shape(d);
}

inline IntMat random_matrix(Rng& rng, std::size_t rows, std::size_t cols, std::int64_t bound) {
  IntMat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m.at(r, c) = rng.uniform(-bound, bound);
  }
  return m;
}

/// An input port with an arbitrary tiler: tiles overlap, leave holes and
/// wrap around freely.
inline aol::TiledPort random_input(Rng& rng, const std::string& name,
                                   const Shape& repetition) {
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
inline aol::TiledPort random_output(Rng& rng, const Shape& repetition) {
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
inline bool long_walk(std::uint64_t seed) { return seed % 3 == 0; }

inline aol::Model random_model(std::uint64_t seed) {
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
  aol::IpBuilder ip;
  for (std::int64_t k = 0; k < out_elems; ++k) {
    aol::IpValue acc = ip.lit(k * 7);
    for (std::int64_t j = 0; j < in_elems; ++j) acc = acc + ip.in(j) * ((j + k) % 5 + 1);
    ip.out(acc);
  }
  task.op = ip.finish("mix");

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

}  // namespace saclo::testsupport
