#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sac/ast.hpp"

namespace saclo::sac::affine {

/// A linear form  c0 + sum_d coeff[d] * t_d  over the *lattice
/// coordinates* t_d of one with-loop generator. Lattice coordinates are
/// non-negative by construction (iv_d = lb_d + step_d * t_d), which is
/// what makes the truncated-division simplification rules sound:
///   (sum b_d t_d + a) / k == sum (b_d/k) t_d + a/k   when all b_d >= 0,
///                                                    b_d % k == 0, a >= 0
///   (sum b_d t_d + a) % k == a % k                   under the same side
///                                                    conditions.
struct Lin {
  std::vector<std::int64_t> coeff;
  std::int64_t c0 = 0;

  bool is_const() const;
  bool operator==(const Lin& other) const = default;
};

/// The iteration lattice of a concrete generator: per dimension,
/// iv_d = lb_d + step_d * t_d with t_d in [0, extent_d). Only width-1
/// generators are represented (wider ones are never folded).
struct Lattice {
  struct Dim {
    std::int64_t lb = 0;
    std::int64_t step = 1;
    std::int64_t extent = 0;
  };
  std::vector<Dim> dims;
  /// Scalar index-variable names (destructured generators); empty when
  /// the generator binds a single vector variable.
  std::vector<std::string> scalar_names;
  /// The vector index-variable name; empty when destructured.
  std::string vector_name;

  std::size_t rank() const { return dims.size(); }
};

/// Evaluates expressions to (vectors of) linear forms over a lattice,
/// following the straight-line bindings of a generator body.
///
/// With `ranged`, `a / k` and `a % k` by a positive constant k also
/// simplify when a's value range over the lattice box is non-negative
/// and lies inside one multiple of k: a / k == q and a % k == a - q*k
/// for q = lo / k == hi / k. That proves `(3*j + k) % 24` affine over
/// j < 8, k < 3, which the divisibility rules above do not.
class AffineEval {
 public:
  explicit AffineEval(const Lattice& lattice, bool ranged = false)
      : lat_(&lattice), ranged_(ranged) {}

  /// Records the bindings of a straight-line generator body so that
  /// variables defined there can be resolved. Bindings that are not
  /// affine are simply skipped (lookups of them fail).
  void bind_block(const std::vector<StmtPtr>& body);

  /// Records one statement: later lookups of its target resolve to its
  /// value, or fail when that value is not affine. Binding statements
  /// one at a time, in order, resolves every expression against the
  /// bindings that precede it — a later rebinding never leaks back.
  void bind_stmt(const Stmt& s);

  /// Makes later lookups of `name` fail: it was overwritten by code
  /// this evaluator does not model. Also hides an index variable.
  void forget(const std::string& name);

  /// A scalar expression as a linear form, or nullopt.
  std::optional<Lin> eval_scalar(const Expr& e) const;

  /// An index expression as a vector of linear forms, or nullopt.
  std::optional<std::vector<Lin>> eval_vector(const Expr& e) const;

  /// Inclusive value range of a linear form over the lattice box.
  std::pair<std::int64_t, std::int64_t> range(const Lin& lin) const;

  const Lattice& lattice() const { return *lat_; }

 private:
  Lin lattice_var(std::size_t d) const;
  /// The ranged rule for `a / k` (div) or `a % k`; nullopt when it does
  /// not apply.
  std::optional<Lin> ranged_divmod(const Lin& a, const Lin& b, bool div) const;

  const Lattice* lat_;
  bool ranged_ = false;
  std::map<std::string, std::vector<Lin>> vec_bindings_;
  std::map<std::string, Lin> scalar_bindings_;
  std::set<std::string> forgotten_;  ///< overwritten by an unmodelled value
};

/// Renders a linear form back into an expression over the generator's
/// index variables: t_d == (iv_d - lb_d) / step_d. Trivial cases fold
/// (step 1, lb 0, zero/unit coefficients).
ExprPtr lin_to_expr(const Lin& lin, const Lattice& lattice);

/// A constrained set of one lattice coordinate:
/// { t : lo <= t < hi  and  t % m == r }. The workhorse of generator
/// splitting (WLF fold regions and %-elimination splits).
struct DimRegion {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t r = 0;
  std::int64_t m = 1;

  static DimRegion full(std::int64_t extent) { return {0, extent, 0, 1}; }

  std::int64_t count() const;
  bool empty() const { return count() == 0; }
  /// Smallest member (count() must be > 0).
  std::int64_t first() const;
  /// Largest member (count() must be > 0).
  std::int64_t last() const;

  std::optional<DimRegion> intersect(const DimRegion& other) const;
  /// The parts of *this not in `other` (disjoint union).
  std::vector<DimRegion> subtract(const DimRegion& other) const;

  bool operator==(const DimRegion& other) const = default;
};

/// A product of per-dimension regions.
using Box = std::vector<DimRegion>;

std::int64_t box_count(const Box& box);
std::optional<Box> box_intersect(const Box& a, const Box& b);
/// Orthogonal decomposition of a \ b into disjoint boxes.
std::vector<Box> box_subtract(const Box& a, const Box& b);

}  // namespace saclo::sac::affine
