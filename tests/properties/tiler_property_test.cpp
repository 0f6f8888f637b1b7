#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>

#include "core/tiler.hpp"

namespace saclo {
namespace {

/// A parameterised tiler scenario over a 2-D array.
struct TilerCase {
  const char* name;
  Index array;       // array shape
  Index pattern;     // pattern shape (rank 1 or 2)
  Index repetition;  // repetition shape
  Index origin;
  IntMat fitting;
  IntMat paving;
  bool expect_partition;
};

std::ostream& operator<<(std::ostream& os, const TilerCase& c) { return os << c.name; }

class TilerProperty : public ::testing::TestWithParam<TilerCase> {};

TEST_P(TilerProperty, ValidatesAndCoversConsistently) {
  const TilerCase& c = GetParam();
  TilerSpec spec{c.origin, c.fitting, c.paving};
  const Shape array(c.array);
  const Shape pattern(c.pattern);
  const Shape repetition(c.repetition);
  ASSERT_NO_THROW(spec.validate(array, pattern, repetition));

  // Property 1: the coverage map counts exactly repetition*pattern
  // visits in total (the tiler formulas never lose an element).
  const IntArray cover = coverage_map(spec, array, pattern, repetition);
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < cover.elements(); ++i) total += cover[i];
  EXPECT_EQ(total, repetition.elements() * pattern.elements());

  // Property 2: partition expectation.
  EXPECT_EQ(is_exact_partition(spec, array, pattern, repetition), c.expect_partition);
}

TEST_P(TilerProperty, GatherScatterRoundTripOnPartitions) {
  const TilerCase& c = GetParam();
  if (!c.expect_partition) GTEST_SKIP() << "round-trip only holds for partitions";
  TilerSpec spec{c.origin, c.fitting, c.paving};
  const Shape array(c.array);
  const Shape pattern(c.pattern);
  const Shape repetition(c.repetition);
  const IntArray original = IntArray::generate(
      array, [](const Index& i) { return i[0] * 1009 + (i.size() > 1 ? i[1] * 31 : 0) + 7; });
  const IntArray tiles = gather(original, spec, pattern, repetition);
  IntArray rebuilt(array, -1);
  scatter(rebuilt, tiles, spec, pattern, repetition);
  EXPECT_EQ(rebuilt, original);
}

TEST_P(TilerProperty, GatherAgreesWithElementFormula) {
  const TilerCase& c = GetParam();
  TilerSpec spec{c.origin, c.fitting, c.paving};
  const Shape array(c.array);
  const Shape pattern(c.pattern);
  const Shape repetition(c.repetition);
  const IntArray in = IntArray::generate(
      array, [](const Index& i) { return i[0] * 131 + (i.size() > 1 ? i[1] : 0); });
  const IntArray tiles = gather(in, spec, pattern, repetition);
  // Spot-check every tile against e = (o + P.r + F.i) mod s.
  for_each_index(repetition, [&](const Index& rep) {
    for_each_index(pattern, [&](const Index& pat) {
      Index at = rep;
      at.insert(at.end(), pat.begin(), pat.end());
      EXPECT_EQ(tiles.at(at), in.at(spec.element_index(array, rep, pat)));
    });
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TilerProperty,
    ::testing::Values(
        TilerCase{"hfilter_input", {6, 32}, {11}, {6, 4}, {0, 0},
                  IntMat{{0}, {1}}, IntMat{{1, 0}, {0, 8}}, false},
        TilerCase{"hfilter_output", {6, 12}, {3}, {6, 4}, {0, 0},
                  IntMat{{0}, {1}}, IntMat{{1, 0}, {0, 3}}, true},
        TilerCase{"vfilter_input", {18, 8}, {13}, {2, 8}, {0, 0},
                  IntMat{{1}, {0}}, IntMat{{9, 0}, {0, 1}}, false},
        TilerCase{"vfilter_output", {8, 6}, {4}, {2, 6}, {0, 0},
                  IntMat{{1}, {0}}, IntMat{{4, 0}, {0, 1}}, true},
        TilerCase{"block_2x4", {8, 16}, {2, 4}, {4, 4}, {0, 0},
                  IntMat{{1, 0}, {0, 1}}, IntMat{{2, 0}, {0, 4}}, true},
        TilerCase{"column_strips", {8, 15}, {8, 5}, {3}, {0, 0},
                  IntMat{{1, 0}, {0, 1}}, IntMat{{0}, {5}}, true},
        TilerCase{"offset_origin", {8, 8}, {2}, {8, 4}, {0, 3},
                  IntMat{{0}, {1}}, IntMat{{1, 0}, {0, 2}}, true},
        TilerCase{"skewed_paving", {6, 12}, {2}, {6, 6}, {0, 0},
                  IntMat{{0}, {1}}, IntMat{{1, 1}, {0, 2}}, true},
        TilerCase{"strided_fitting", {4, 16}, {4}, {4, 2}, {0, 0},
                  IntMat{{0}, {2}}, IntMat{{1, 0}, {0, 8}}, false},
        TilerCase{"interleave", {12}, {3}, {4}, {0},
                  IntMat{{4}}, IntMat{{1}}, true}),
    [](const ::testing::TestParamInfo<TilerCase>& info) { return info.param.name; });

/// The definition the fast checks must agree with: visit counts through
/// TilerSpec::element_index, one (repetition, pattern) pair at a time.
IntArray naive_coverage(const TilerSpec& spec, const Shape& array, const Shape& pattern,
                        const Shape& repetition) {
  IntArray counts(array, 0);
  for_each_index(repetition, [&](const Index& rep) {
    for_each_index(pattern, [&](const Index& pat) {
      counts.at(spec.element_index(array, rep, pat)) += 1;
    });
  });
  return counts;
}

struct RandomTiler {
  TilerSpec spec;
  Shape array;
  Shape pattern;
  Shape repetition;
};

/// A seeded random tiler of array rank 1-3. Three families:
///  - block partitions: per dimension a tile of t elements repeated c
///    times, with fitting/paving signs flipped, pattern and repetition
///    dimensions permuted and a wrapping origin (partitions by design);
///  - perturbed partitions: the same with one matrix entry moved by one
///    (equal element counts, usually overlapping);
///  - free tilers: random ranks, extents and entries in [-3, 3],
///    zeros included (overlaps and gaps).
RandomTiler random_tiler(std::mt19937& rng, int family) {
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const auto ar = static_cast<std::size_t>(pick(1, 3));
  RandomTiler t;
  if (family == 2) {
    const auto pr = static_cast<std::size_t>(pick(1, 3));
    const auto rr = static_cast<std::size_t>(pick(1, 3));
    Index a(ar);
    Index p(pr);
    Index r(rr);
    for (auto& x : a) x = pick(1, 6);
    for (auto& x : p) x = pick(1, 4);
    for (auto& x : r) x = pick(1, 4);
    t.array = Shape(a);
    t.pattern = Shape(p);
    t.repetition = Shape(r);
    t.spec.fitting = IntMat(ar, pr);
    t.spec.paving = IntMat(ar, rr);
    for (std::size_t d = 0; d < ar; ++d) {
      for (std::size_t j = 0; j < pr; ++j) t.spec.fitting.at(d, j) = pick(-3, 3);
      for (std::size_t j = 0; j < rr; ++j) t.spec.paving.at(d, j) = pick(-3, 3);
    }
  } else {
    Index tile(ar);
    Index count(ar);
    Index a(ar);
    for (std::size_t d = 0; d < ar; ++d) {
      tile[d] = pick(1, 4);
      count[d] = pick(1, 4);
      a[d] = tile[d] * count[d];
    }
    std::vector<std::size_t> pperm(ar);
    std::vector<std::size_t> rperm(ar);
    std::iota(pperm.begin(), pperm.end(), 0);
    std::iota(rperm.begin(), rperm.end(), 0);
    std::shuffle(pperm.begin(), pperm.end(), rng);
    std::shuffle(rperm.begin(), rperm.end(), rng);
    Index p(ar);
    Index r(ar);
    t.spec.fitting = IntMat(ar, ar);
    t.spec.paving = IntMat(ar, ar);
    for (std::size_t d = 0; d < ar; ++d) {
      p[pperm[d]] = tile[d];
      r[rperm[d]] = count[d];
      t.spec.fitting.at(d, pperm[d]) = pick(0, 1) ? 1 : -1;
      t.spec.paving.at(d, rperm[d]) = (pick(0, 1) ? 1 : -1) * tile[d];
    }
    t.array = Shape(a);
    t.pattern = Shape(p);
    t.repetition = Shape(r);
    if (family == 1) {
      IntMat& m = pick(0, 1) ? t.spec.fitting : t.spec.paving;
      const auto d = static_cast<std::size_t>(pick(0, static_cast<std::int64_t>(ar) - 1));
      const auto j = static_cast<std::size_t>(pick(0, static_cast<std::int64_t>(m.cols()) - 1));
      m.at(d, j) += pick(0, 1) ? 1 : -1;
    }
  }
  t.spec.origin = Index(ar);
  for (std::size_t d = 0; d < ar; ++d) {
    t.spec.origin[d] = pick(-2 * t.array[d], 2 * t.array[d]);  // wraps both ways
  }
  return t;
}

TEST(TilerOracle, FastChecksMatchElementIndexReferenceOnRandomTilers) {
  std::mt19937 rng(20110516);
  int partitions = 0;
  int same_size_non_partitions = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const RandomTiler t = random_tiler(rng, trial % 3);
    const std::string what = cat("trial ", trial, ": ", t.spec.to_string(), " array ",
                                 t.array.to_string(), " pattern ", t.pattern.to_string(),
                                 " repetition ", t.repetition.to_string());
    const IntArray ref = naive_coverage(t.spec, t.array, t.pattern, t.repetition);
    ASSERT_EQ(coverage_map(t.spec, t.array, t.pattern, t.repetition), ref) << what;
    const bool partition =
        std::all_of(ref.data().begin(), ref.data().end(), [](std::int64_t c) { return c == 1; });
    ASSERT_EQ(is_exact_partition(t.spec, t.array, t.pattern, t.repetition), partition) << what;
    if (partition) {
      ++partitions;
    } else if (t.repetition.elements() * t.pattern.elements() == t.array.elements()) {
      ++same_size_non_partitions;
    }
  }
  // Both verdicts are exercised where the element-count shortcut cannot
  // decide them.
  EXPECT_GE(partitions, 150);
  EXPECT_GE(same_size_non_partitions, 50);
}

}  // namespace
}  // namespace saclo
