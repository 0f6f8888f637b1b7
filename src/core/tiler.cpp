#include "core/tiler.hpp"

#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "core/fmt.hpp"

namespace saclo {

void TilerSpec::validate(const Shape& array_shape, const Shape& pattern_shape,
                         const Shape& repetition_shape) const {
  const std::size_t ar = array_shape.rank();
  if (origin.size() != ar) {
    throw TilerError(cat("tiler origin ", bracketed(origin), " has rank ", origin.size(),
                         " but array shape ", array_shape.to_string(), " has rank ", ar));
  }
  if (fitting.rows() != ar || fitting.cols() != pattern_shape.rank()) {
    throw TilerError(cat("fitting matrix is ", fitting.rows(), "x", fitting.cols(),
                         ", expected ", ar, "x", pattern_shape.rank(), " for array ",
                         array_shape.to_string(), " and pattern ", pattern_shape.to_string()));
  }
  if (paving.rows() != ar || paving.cols() != repetition_shape.rank()) {
    throw TilerError(cat("paving matrix is ", paving.rows(), "x", paving.cols(),
                         ", expected ", ar, "x", repetition_shape.rank(), " for array ",
                         array_shape.to_string(), " and repetition ",
                         repetition_shape.to_string()));
  }
  for (std::size_t d = 0; d < ar; ++d) {
    if (array_shape[d] == 0) {
      throw TilerError(cat("tiler over array with empty dimension ", d));
    }
  }
}

Index TilerSpec::element_index(const Shape& array_shape, const Index& rep,
                               const Index& pat) const {
  Index e = paving.mv(rep);
  const Index f = fitting.mv(pat);
  for (std::size_t d = 0; d < e.size(); ++d) e[d] += origin[d] + f[d];
  return floor_mod(std::move(e), array_shape.dims());
}

Index TilerSpec::reference(const Shape& array_shape, const Index& rep) const {
  Index e = paving.mv(rep);
  for (std::size_t d = 0; d < e.size(); ++d) e[d] += origin[d];
  return floor_mod(std::move(e), array_shape.dims());
}

std::string TilerSpec::to_string() const {
  return cat("tiler{origin=", bracketed(origin), ", fitting=", fitting.to_string(),
             ", paving=", paving.to_string(), "}");
}

TilerWalk::TilerWalk(const TilerSpec& spec, const Shape& array_shape,
                     const Shape& pattern_shape, const Shape& repetition_shape)
    : origin_(spec.origin),
      dims_(array_shape.dims()),
      strides_(array_shape.strides()),
      repetition_(repetition_shape),
      pattern_elements_(pattern_shape.elements()) {
  spec.validate(array_shape, pattern_shape, repetition_shape);
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    for (std::size_t r = 0; r < repetition_.rank(); ++r) paving_.push_back(spec.paving.at(d, r));
  }
  fit_.reserve(static_cast<std::size_t>(pattern_elements_) * dims_.size());
  for_each_index(pattern_shape, [&](const Index& pat) {
    const Index f = floor_mod(spec.fitting.mv(pat), dims_);
    fit_.insert(fit_.end(), f.begin(), f.end());
  });
}

void TilerWalk::reference(const Index& rep, Index& ref) const {
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    std::int64_t v = origin_[d];
    const std::int64_t* row = paving_.data() + d * rep.size();
    for (std::size_t r = 0; r < rep.size(); ++r) v += row[r] * rep[r];
    ref[d] = floor_mod(v, dims_[d]);
  }
}

IntArray coverage_map(const TilerSpec& spec, const Shape& array_shape,
                      const Shape& pattern_shape, const Shape& repetition_shape) {
  const TilerWalk walk(spec, array_shape, pattern_shape, repetition_shape);
  IntArray counts(array_shape, 0);
  walk.for_each_instance([&](const Index&, std::int64_t, const Index& ref) {
    for (std::int64_t p = 0; p < walk.pattern_elements(); ++p) counts[walk.element(ref, p)] += 1;
    return true;
  });
  return counts;
}

bool is_exact_partition(const TilerSpec& spec, const Shape& array_shape,
                        const Shape& pattern_shape, const Shape& repetition_shape) {
  if (repetition_shape.elements() * pattern_shape.elements() != array_shape.elements()) {
    return false;
  }
  const TilerWalk walk(spec, array_shape, pattern_shape, repetition_shape);
  // As many visits as elements: the tiling is a partition exactly when
  // no element is visited twice.
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(array_shape.elements()), 0);
  return walk.for_each_instance([&](const Index&, std::int64_t, const Index& ref) {
    for (std::int64_t p = 0; p < walk.pattern_elements(); ++p) {
      std::uint8_t& s = seen[static_cast<std::size_t>(walk.element(ref, p))];
      if (s) return false;
      s = 1;
    }
    return true;
  });
}

}  // namespace saclo
