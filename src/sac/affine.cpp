#include "sac/affine.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/fmt.hpp"
#include "sac/specialize.hpp"

namespace saclo::sac::affine {

bool Lin::is_const() const {
  for (std::int64_t c : coeff) {
    if (c != 0) return false;
  }
  return true;
}

namespace {

Lin constant(std::size_t rank, std::int64_t v) {
  Lin l;
  l.coeff.assign(rank, 0);
  l.c0 = v;
  return l;
}

std::optional<Lin> add(const Lin& a, const Lin& b, std::int64_t sign) {
  Lin out = a;
  for (std::size_t i = 0; i < out.coeff.size(); ++i) out.coeff[i] += sign * b.coeff[i];
  out.c0 += sign * b.c0;
  return out;
}

std::optional<Lin> mul(const Lin& a, const Lin& b) {
  if (a.is_const()) {
    Lin out = b;
    for (auto& c : out.coeff) c *= a.c0;
    out.c0 *= a.c0;
    return out;
  }
  if (b.is_const()) return mul(b, a);
  return std::nullopt;
}

/// Truncated division by a positive constant; sound only when every
/// term is non-negative and every coefficient divides (see Lin docs).
std::optional<Lin> div(const Lin& a, const Lin& b) {
  if (!b.is_const() || b.c0 <= 0) return std::nullopt;
  const std::int64_t k = b.c0;
  if (a.c0 < 0) return std::nullopt;
  Lin out = a;
  for (auto& c : out.coeff) {
    if (c < 0 || c % k != 0) return std::nullopt;
    c /= k;
  }
  out.c0 /= k;
  return out;
}

std::optional<Lin> mod(const Lin& a, const Lin& b, std::size_t rank) {
  if (!b.is_const() || b.c0 <= 0) return std::nullopt;
  const std::int64_t k = b.c0;
  if (a.c0 < 0) return std::nullopt;
  for (std::int64_t c : a.coeff) {
    if (c < 0 || c % k != 0) return std::nullopt;
  }
  return constant(rank, a.c0 % k);
}

}  // namespace

Lin AffineEval::lattice_var(std::size_t d) const {
  Lin l = constant(lat_->rank(), lat_->dims[d].lb);
  l.coeff[d] = lat_->dims[d].step;
  return l;
}

void AffineEval::bind_block(const std::vector<StmtPtr>& body) {
  for (const StmtPtr& s : body) bind_stmt(*s);
}

void AffineEval::bind_stmt(const Stmt& s) {
  if (s.target.empty()) return;
  // Element assignments / loops invalidate the target.
  std::optional<std::vector<Lin>> v;
  if (s.kind == StmtKind::Assign && s.value) v = eval_vector(*s.value);
  if (!v) {
    forget(s.target);
    return;
  }
  if (v->size() == 1) {
    scalar_bindings_[s.target] = (*v)[0];
  } else {
    scalar_bindings_.erase(s.target);
  }
  vec_bindings_[s.target] = std::move(*v);
  forgotten_.erase(s.target);
}

void AffineEval::forget(const std::string& name) {
  scalar_bindings_.erase(name);
  vec_bindings_.erase(name);
  forgotten_.insert(name);
}

std::optional<Lin> AffineEval::eval_scalar(const Expr& e) const {
  const std::size_t rank = lat_->rank();
  switch (e.kind) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
      return constant(rank, e.int_val);
    case ExprKind::Var: {
      auto it = scalar_bindings_.find(e.name);
      if (it != scalar_bindings_.end()) return it->second;
      if (forgotten_.count(e.name) != 0) return std::nullopt;
      for (std::size_t d = 0; d < lat_->scalar_names.size(); ++d) {
        if (lat_->scalar_names[d] == e.name) return lattice_var(d);
      }
      return std::nullopt;
    }
    case ExprKind::Select: {
      // iv[d] on the generator's vector variable or on a bound vector.
      auto vec = eval_vector(*e.args[0]);
      if (!vec) return std::nullopt;
      auto idx = literal_value(*e.args[1]);
      if (!idx || !idx->is_int()) return std::nullopt;
      const Index iv = idx->shape().rank() == 0 ? Index{idx->as_int()} : idx->as_index_vector();
      if (iv.size() != 1) return std::nullopt;
      if (iv[0] < 0 || iv[0] >= static_cast<std::int64_t>(vec->size())) return std::nullopt;
      return (*vec)[static_cast<std::size_t>(iv[0])];
    }
    case ExprKind::BinOp: {
      auto a = eval_scalar(*e.args[0]);
      auto b = eval_scalar(*e.args[1]);
      if (!a || !b) return std::nullopt;
      switch (e.bin_op) {
        case BinOpKind::Add: return add(*a, *b, 1);
        case BinOpKind::Sub: return add(*a, *b, -1);
        case BinOpKind::Mul: return mul(*a, *b);
        case BinOpKind::Div:
          if (auto q = div(*a, *b)) return q;
          return ranged_divmod(*a, *b, true);
        case BinOpKind::Mod:
          if (auto r = mod(*a, *b, rank)) return r;
          return ranged_divmod(*a, *b, false);
        default: return std::nullopt;
      }
    }
    case ExprKind::UnOp: {
      if (e.un_op != UnOpKind::Neg) return std::nullopt;
      auto a = eval_scalar(*e.args[0]);
      if (!a) return std::nullopt;
      return add(constant(rank, 0), *a, -1);
    }
    default:
      return std::nullopt;
  }
}

std::optional<std::vector<Lin>> AffineEval::eval_vector(const Expr& e) const {
  switch (e.kind) {
    case ExprKind::Var: {
      auto it = vec_bindings_.find(e.name);
      if (it != vec_bindings_.end()) return it->second;
      if (forgotten_.count(e.name) != 0) return std::nullopt;
      if (!lat_->vector_name.empty() && e.name == lat_->vector_name) {
        std::vector<Lin> out;
        out.reserve(lat_->rank());
        for (std::size_t d = 0; d < lat_->rank(); ++d) out.push_back(lattice_var(d));
        return out;
      }
      if (auto s = eval_scalar(e)) return std::vector<Lin>{*s};
      return std::nullopt;
    }
    case ExprKind::ArrayLit: {
      std::vector<Lin> out;
      out.reserve(e.args.size());
      for (const ExprPtr& a : e.args) {
        auto s = eval_scalar(*a);
        if (!s) return std::nullopt;
        out.push_back(std::move(*s));
      }
      return out;
    }
    case ExprKind::BinOp: {
      if (e.bin_op == BinOpKind::Concat) {
        auto a = eval_vector(*e.args[0]);
        auto b = eval_vector(*e.args[1]);
        if (!a || !b) return std::nullopt;
        a->insert(a->end(), b->begin(), b->end());
        return a;
      }
      // Elementwise vector arithmetic (vector op vector / vector op
      // scalar), used by `off % shape` style index computations.
      auto a = eval_vector(*e.args[0]);
      auto b = eval_vector(*e.args[1]);
      if (!a || !b) {
        if (auto s = eval_scalar(e)) return std::vector<Lin>{*s};
        return std::nullopt;
      }
      const std::size_t n = std::max(a->size(), b->size());
      if (a->size() != n && a->size() != 1) return std::nullopt;
      if (b->size() != n && b->size() != 1) return std::nullopt;
      std::vector<Lin> out;
      out.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const Lin& x = (*a)[a->size() == 1 ? 0 : i];
        const Lin& y = (*b)[b->size() == 1 ? 0 : i];
        std::optional<Lin> r;
        switch (e.bin_op) {
          case BinOpKind::Add: r = add(x, y, 1); break;
          case BinOpKind::Sub: r = add(x, y, -1); break;
          case BinOpKind::Mul: r = mul(x, y); break;
          case BinOpKind::Div: r = div(x, y); break;
          case BinOpKind::Mod: r = mod(x, y, lat_->rank()); break;
          default: return std::nullopt;
        }
        if (!r) return std::nullopt;
        out.push_back(std::move(*r));
      }
      return out;
    }
    case ExprKind::Call: {
      if (e.name == "CAT" && e.args.size() == 2) {
        auto a = eval_vector(*e.args[0]);
        auto b = eval_vector(*e.args[1]);
        if (!a || !b) return std::nullopt;
        a->insert(a->end(), b->begin(), b->end());
        return a;
      }
      if (e.name == "MV" && e.args.size() == 2) {
        auto m = literal_value(*e.args[0]);
        auto v = eval_vector(*e.args[1]);
        if (!m || !v || !m->is_int() || m->shape().rank() != 2) return std::nullopt;
        const IntArray& mat = m->ints();
        const std::int64_t rows = mat.shape()[0];
        const std::int64_t cols = mat.shape()[1];
        if (cols != static_cast<std::int64_t>(v->size())) return std::nullopt;
        std::vector<Lin> out;
        out.reserve(static_cast<std::size_t>(rows));
        for (std::int64_t r = 0; r < rows; ++r) {
          Lin acc = constant(lat_->rank(), 0);
          for (std::int64_t c = 0; c < cols; ++c) {
            auto term = mul(constant(lat_->rank(), mat[r * cols + c]),
                            (*v)[static_cast<std::size_t>(c)]);
            if (!term) return std::nullopt;
            acc = *add(acc, *term, 1);
          }
          out.push_back(std::move(acc));
        }
        return out;
      }
      return std::nullopt;
    }
    case ExprKind::Select: {
      if (auto s = eval_scalar(e)) return std::vector<Lin>{*s};
      return std::nullopt;
    }
    default: {
      if (auto s = eval_scalar(e)) return std::vector<Lin>{*s};
      return std::nullopt;
    }
  }
}

std::optional<Lin> AffineEval::ranged_divmod(const Lin& a, const Lin& b, bool div) const {
  if (!ranged_ || !b.is_const() || b.c0 <= 0) return std::nullopt;
  // The range in 128 bits: no coefficient can overflow it.
  __int128 lo = a.c0;
  __int128 hi = a.c0;
  for (std::size_t d = 0; d < a.coeff.size(); ++d) {
    const __int128 v =
        static_cast<__int128>(a.coeff[d]) * std::max<std::int64_t>(lat_->dims[d].extent - 1, 0);
    (v >= 0 ? hi : lo) += v;
  }
  const std::int64_t k = b.c0;
  if (lo < 0 || hi > std::numeric_limits<std::int64_t>::max() || lo / k != hi / k) {
    return std::nullopt;
  }
  const auto q = static_cast<std::int64_t>(lo / k);
  if (div) return constant(lat_->rank(), q);
  Lin r = a;
  r.c0 -= q * k;
  return r;
}

std::pair<std::int64_t, std::int64_t> AffineEval::range(const Lin& lin) const {
  std::int64_t lo = lin.c0;
  std::int64_t hi = lin.c0;
  for (std::size_t d = 0; d < lin.coeff.size(); ++d) {
    const std::int64_t tmax = std::max<std::int64_t>(lat_->dims[d].extent - 1, 0);
    const std::int64_t v = lin.coeff[d] * tmax;
    if (v >= 0) {
      hi += v;
    } else {
      lo += v;
    }
  }
  return {lo, hi};
}

ExprPtr lin_to_expr(const Lin& lin, const Lattice& lattice) {
  ExprPtr acc;
  auto iv_expr = [&](std::size_t d) -> ExprPtr {
    if (!lattice.vector_name.empty()) {
      return make_select(make_var(lattice.vector_name),
                         make_index_lit({static_cast<std::int64_t>(d)}));
    }
    return make_var(lattice.scalar_names[d]);
  };
  for (std::size_t d = 0; d < lin.coeff.size(); ++d) {
    if (lin.coeff[d] == 0) continue;
    // t_d == (iv_d - lb_d) / step_d.
    ExprPtr t = iv_expr(d);
    const auto& dim = lattice.dims[d];
    if (dim.lb != 0) t = make_bin(BinOpKind::Sub, std::move(t), make_int(dim.lb));
    if (dim.step != 1) t = make_bin(BinOpKind::Div, std::move(t), make_int(dim.step));
    if (lin.coeff[d] != 1) t = make_bin(BinOpKind::Mul, make_int(lin.coeff[d]), std::move(t));
    acc = acc ? make_bin(BinOpKind::Add, std::move(acc), std::move(t)) : std::move(t);
  }
  if (!acc) return make_int(lin.c0);
  if (lin.c0 != 0) acc = make_bin(BinOpKind::Add, std::move(acc), make_int(lin.c0));
  return acc;
}

// --- regions ---------------------------------------------------------------------

std::int64_t DimRegion::count() const {
  if (hi <= lo) return 0;
  const std::int64_t f = first();
  if (f >= hi) return 0;
  return (hi - 1 - f) / m + 1;
}

std::int64_t DimRegion::first() const {
  // Smallest t >= lo with t % m == r.
  const std::int64_t rr = ((r % m) + m) % m;
  std::int64_t t = lo + ((rr - lo) % m + m) % m;
  return t;
}

std::int64_t DimRegion::last() const { return first() + (count() - 1) * m; }

std::optional<DimRegion> DimRegion::intersect(const DimRegion& other) const {
  DimRegion out;
  out.lo = std::max(lo, other.lo);
  out.hi = std::min(hi, other.hi);
  // Solve t == r (mod m), t == other.r (mod other.m) by CRT (scan — the
  // moduli in practice are tiny steps).
  const std::int64_t g = std::gcd(m, other.m);
  if (((r - other.r) % g + g) % g != 0) return std::nullopt;
  const std::int64_t M = m / g * other.m;
  if (M > 1'000'000) return std::nullopt;  // give up on absurd moduli
  std::int64_t sol = -1;
  for (std::int64_t t = ((r % m) + m) % m; t < M; t += m) {
    if (((t - other.r) % other.m + other.m) % other.m == 0) {
      sol = t;
      break;
    }
  }
  if (sol < 0) return std::nullopt;
  out.r = sol;
  out.m = M;
  if (out.count() == 0) return std::nullopt;
  return out;
}

std::vector<DimRegion> DimRegion::subtract(const DimRegion& other) const {
  std::vector<DimRegion> out;
  auto inter = intersect(other);
  if (!inter) {
    if (count() > 0) out.push_back(*this);
    return out;
  }
  const DimRegion& cut = *inter;
  // Left interval part.
  {
    DimRegion left = *this;
    left.hi = std::min(hi, cut.lo);
    if (left.count() > 0) out.push_back(left);
  }
  // Middle: same interval as the cut, residue classes of *this that are
  // not the cut's class. cut.m is a multiple of m.
  for (std::int64_t cls = ((r % m) + m) % m; cls < cut.m; cls += m) {
    if (cls == ((cut.r % cut.m) + cut.m) % cut.m) continue;
    DimRegion mid;
    mid.lo = std::max(lo, cut.lo);
    mid.hi = std::min(hi, cut.hi);
    mid.r = cls;
    mid.m = cut.m;
    if (mid.count() > 0) out.push_back(mid);
  }
  // Right interval part.
  {
    DimRegion right = *this;
    right.lo = std::max(lo, cut.hi);
    if (right.count() > 0) out.push_back(right);
  }
  return out;
}

std::int64_t box_count(const Box& box) {
  std::int64_t n = 1;
  for (const DimRegion& d : box) n *= d.count();
  return n;
}

std::optional<Box> box_intersect(const Box& a, const Box& b) {
  Box out;
  out.reserve(a.size());
  for (std::size_t d = 0; d < a.size(); ++d) {
    auto i = a[d].intersect(b[d]);
    if (!i) return std::nullopt;
    out.push_back(*i);
  }
  return out;
}

std::vector<Box> box_subtract(const Box& a, const Box& b) {
  std::vector<Box> out;
  Box current = a;
  for (std::size_t d = 0; d < a.size(); ++d) {
    for (const DimRegion& piece : current[d].subtract(b[d])) {
      Box part = current;
      part[d] = piece;
      if (box_count(part) > 0) out.push_back(std::move(part));
    }
    auto inter = current[d].intersect(b[d]);
    if (!inter) return out;  // fully carved away
    current[d] = *inter;
  }
  // `current` is now inside b and is intentionally dropped.
  return out;
}

}  // namespace saclo::sac::affine
