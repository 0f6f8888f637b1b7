#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/matrix.hpp"
#include "core/ndarray.hpp"

namespace saclo {

/// An ArrayOL tiler: the connector that describes how a
/// multidimensional array is covered by patterns (tiles).
///
/// Following Section IV of the paper, a tiler is defined by
///   - an origin vector `o` (one entry per array dimension),
///   - a fitting matrix `F` (array-rank × pattern-rank) describing how a
///     pattern is filled with array elements, and
///   - a paving matrix `P` (array-rank × repetition-rank) describing how
///     the array is covered by pattern instances.
///
/// For a repetition index r and pattern index i, the addressed array
/// element is  e(r, i) = (o + P·r + F·i) mod s_array  — all indexing is
/// modular, which is what makes boundary tiles wrap around.
struct TilerSpec {
  Index origin;
  IntMat fitting;
  IntMat paving;

  /// Checks dimensional consistency against concrete shapes; throws
  /// TilerError with a precise message otherwise.
  void validate(const Shape& array_shape, const Shape& pattern_shape,
                const Shape& repetition_shape) const;

  /// The array element addressed by (repetition r, pattern i).
  Index element_index(const Shape& array_shape, const Index& rep, const Index& pat) const;

  /// The reference element of pattern instance r (pattern index 0).
  Index reference(const Shape& array_shape, const Index& rep) const;

  std::string to_string() const;

  bool operator==(const TilerSpec& other) const = default;
};

/// Allocation-free addressing of one tiler over concrete shapes, for
/// loops that touch every addressed element. The F·i offsets are
/// tabulated once, already reduced into the array, and each repetition
/// point's reference element is reduced once; an element then costs one
/// add, one conditional subtract and one multiply-add per array
/// dimension. It is the shared inner loop of the exact-partition proof,
/// the coverage map and the optimizer's fusion analysis; it addresses
/// exactly the elements TilerSpec::element_index defines.
class TilerWalk {
 public:
  /// Validates the spec against the shapes (see TilerSpec::validate).
  TilerWalk(const TilerSpec& spec, const Shape& array_shape, const Shape& pattern_shape,
            const Shape& repetition_shape);

  std::int64_t pattern_elements() const { return pattern_elements_; }

  /// Row-major offset of pattern element `pat` (linear pattern index)
  /// of the instance whose reduced reference element is `ref`.
  std::int64_t element(const Index& ref, std::int64_t pat) const {
    const std::int64_t* fit = fit_.data() + pat * static_cast<std::int64_t>(dims_.size());
    std::int64_t e = 0;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      std::int64_t v = ref[d] + fit[d];
      if (v >= dims_[d]) v -= dims_[d];
      e += v * strides_[d];
    }
    return e;
  }

  /// Calls fn(rep, rep_lin, ref) for every repetition point in row-major
  /// order (the gather/scatter order), with `ref` its reduced reference
  /// element. Stops and returns false as soon as fn returns false.
  template <typename Fn>
  bool for_each_instance(Fn&& fn) const {
    Index rep(repetition_.rank(), 0);
    Index ref(dims_.size(), 0);
    const std::int64_t reps = repetition_.elements();
    for (std::int64_t r = 0; r < reps; ++r) {
      reference(rep, ref);
      if (!fn(std::as_const(rep), r, std::as_const(ref))) return false;
      for (std::size_t d = rep.size(); d-- > 0;) {
        if (++rep[d] < repetition_[d]) break;
        rep[d] = 0;
      }
    }
    return true;
  }

 private:
  /// The reference element of repetition point `rep`, each coordinate
  /// reduced into [0, extent), written to `ref` (array rank entries).
  void reference(const Index& rep, Index& ref) const;

  Index origin_;
  Index dims_;
  Index strides_;
  Shape repetition_;
  /// The paving matrix, row-major (array rank x repetition rank).
  std::vector<std::int64_t> paving_;
  std::int64_t pattern_elements_ = 0;
  /// Per pattern element (row-major), the reduced F·i vector.
  std::vector<std::int64_t> fit_;
};

/// True when the tiler visits every element of `array_shape` exactly
/// once over the full repetition × pattern space — i.e. the tiling is an
/// exact partition. Tilers used as *output* (scatter) sides of ArrayOL
/// tasks must satisfy this for the task to be deterministic.
bool is_exact_partition(const TilerSpec& spec, const Shape& array_shape,
                        const Shape& pattern_shape, const Shape& repetition_shape);

/// Number of times each array element is visited (same layout as the
/// array). Useful for diagnosing non-partition tilers in tests.
IntArray coverage_map(const TilerSpec& spec, const Shape& array_shape,
                      const Shape& pattern_shape, const Shape& repetition_shape);

/// Input-tiler semantics: gathers tiles from `in` into a fresh array of
/// shape repetition ++ pattern (the paper's first intermediate array).
template <typename T>
NDArray<T> gather(const NDArray<T>& in, const TilerSpec& spec, const Shape& pattern_shape,
                  const Shape& repetition_shape) {
  spec.validate(in.shape(), pattern_shape, repetition_shape);
  NDArray<T> out(repetition_shape.concat(pattern_shape));
  std::int64_t linear = 0;
  for_each_index(repetition_shape, [&](const Index& rep) {
    for_each_index(pattern_shape, [&](const Index& pat) {
      out[linear++] = in.at(spec.element_index(in.shape(), rep, pat));
    });
  });
  return out;
}

/// Output-tiler semantics: scatters an array of shape
/// repetition ++ pattern into `out` (the paper's output frame).
template <typename T>
void scatter(NDArray<T>& out, const NDArray<T>& tiles, const TilerSpec& spec,
             const Shape& pattern_shape, const Shape& repetition_shape) {
  spec.validate(out.shape(), pattern_shape, repetition_shape);
  if (tiles.shape() != repetition_shape.concat(pattern_shape)) {
    throw TilerError(cat("scatter: tile array shape ", tiles.shape().to_string(),
                         " != repetition ++ pattern ",
                         repetition_shape.concat(pattern_shape).to_string()));
  }
  std::int64_t linear = 0;
  for_each_index(repetition_shape, [&](const Index& rep) {
    for_each_index(pattern_shape, [&](const Index& pat) {
      out.at(spec.element_index(out.shape(), rep, pat)) = tiles[linear++];
    });
  });
}

}  // namespace saclo
