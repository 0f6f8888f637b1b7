#include "sac_cuda/program.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <tuple>

#include "core/fmt.hpp"
#include "core/scope_exit.hpp"
#include "sac/builtins.hpp"
#include "sac/interp.hpp"
#include "sac/specialize.hpp"

namespace saclo::sac_cuda {

using sac::Expr;
using sac::ExprKind;
using sac::Generator;
using sac::Stmt;
using sac::StmtKind;
using sac::StmtPtr;
using sac::Value;
using sac::WithOpKind;

namespace {

void visit_all_exprs(const Expr& e, const std::function<void(const Expr&)>& fn) {
  fn(e);
  for (const sac::ExprPtr& a : e.args) {
    if (a) visit_all_exprs(*a, fn);
  }
  for (const Generator& g : e.generators) {
    if (g.lower) visit_all_exprs(*g.lower, fn);
    if (g.upper) visit_all_exprs(*g.upper, fn);
    if (g.step) visit_all_exprs(*g.step, fn);
    if (g.width) visit_all_exprs(*g.width, fn);
    for (const StmtPtr& s : g.body) {
      if (s->value) visit_all_exprs(*s->value, fn);
      for (const sac::ExprPtr& i : s->indices) {
        if (i) visit_all_exprs(*i, fn);
      }
    }
    if (g.value) visit_all_exprs(*g.value, fn);
  }
  if (e.op.shape_or_target) visit_all_exprs(*e.op.shape_or_target, fn);
  if (e.op.default_value) visit_all_exprs(*e.op.default_value, fn);
}

void collect_reads(const Stmt& s, std::set<std::string>& reads) {
  auto on_expr = [&](const Expr& x) {
    if (x.kind == ExprKind::Var) reads.insert(x.name);
  };
  if (s.value) visit_all_exprs(*s.value, on_expr);
  for (const sac::ExprPtr& i : s.indices) {
    if (i) visit_all_exprs(*i, on_expr);
  }
  if (s.for_init) visit_all_exprs(*s.for_init, on_expr);
  if (s.for_cond) visit_all_exprs(*s.for_cond, on_expr);
  if (s.for_step) visit_all_exprs(*s.for_step, on_expr);
  for (const StmtPtr& c : s.body) collect_reads(*c, reads);
  for (const StmtPtr& c : s.else_body) collect_reads(*c, reads);
  if (s.kind == StmtKind::ElemAssign) reads.insert(s.target);
}

// --- static operation estimates ----------------------------------------------------

std::optional<double> ops_of_expr(const Expr& e);

std::optional<double> ops_of_block(const std::vector<StmtPtr>& body);

std::optional<double> ops_of_with(const Expr& e) {
  double total = 2;  // result allocation bookkeeping
  for (const Generator& g : e.generators) {
    auto cg = sac::concrete_generator(g);
    if (!cg) return std::nullopt;
    auto body_ops = ops_of_block(g.body);
    auto value_ops = ops_of_expr(*g.value);
    if (!body_ops || !value_ops) return std::nullopt;
    total += static_cast<double>(cg->points()) *
             (*body_ops + *value_ops + 2.0 * static_cast<double>(cg->lb.size()));
  }
  return total;
}

std::optional<double> ops_of_expr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::IntLit:
    case ExprKind::FloatLit:
    case ExprKind::BoolLit:
      return 0.0;
    case ExprKind::Var:
      return 0.5;
    case ExprKind::ArrayLit: {
      double total = static_cast<double>(e.args.size());
      for (const sac::ExprPtr& a : e.args) {
        auto x = ops_of_expr(*a);
        if (!x) return std::nullopt;
        total += *x;
      }
      return total;
    }
    case ExprKind::BinOp:
    case ExprKind::UnOp: {
      double total = 1.0;
      for (const sac::ExprPtr& a : e.args) {
        auto x = ops_of_expr(*a);
        if (!x) return std::nullopt;
        total += *x;
      }
      return total;
    }
    case ExprKind::Call: {
      double total = e.name == "MV" ? 8.0 : 2.0;
      for (const sac::ExprPtr& a : e.args) {
        auto x = ops_of_expr(*a);
        if (!x) return std::nullopt;
        total += *x;
      }
      return total;
    }
    case ExprKind::Select: {
      auto idx = ops_of_expr(*e.args[1]);
      auto arr = ops_of_expr(*e.args[0]);
      if (!idx || !arr) return std::nullopt;
      return 2.0 + *idx + *arr;
    }
    case ExprKind::With:
      return ops_of_with(e);
  }
  return std::nullopt;
}

/// The values `for (v = init; v < K; v += s)` (or `<=`) gives v, as a
/// progression, when init, K and s > 0 are literals.
std::optional<sac::affine::Lattice::Dim> literal_loop(const Stmt& s) {
  auto init = sac::literal_value(*s.for_init);
  auto step = sac::literal_value(*s.for_step);
  if (!init || !step || !init->is_int() || !step->is_int()) return std::nullopt;
  const Expr& cond = *s.for_cond;
  if (cond.kind != ExprKind::BinOp) return std::nullopt;
  if (cond.args[0]->kind != ExprKind::Var || cond.args[0]->name != s.target) return std::nullopt;
  auto bound = sac::literal_value(*cond.args[1]);
  if (!bound || !bound->is_int()) return std::nullopt;
  const std::int64_t i0 = init->as_int();
  const std::int64_t st = step->as_int();
  const std::int64_t b = bound->as_int();
  if (st <= 0) return std::nullopt;
  std::int64_t end = b;
  if (cond.bin_op == sac::BinOpKind::Le) {
    end = b + 1;
  } else if (cond.bin_op != sac::BinOpKind::Lt) {
    return std::nullopt;
  }
  return sac::affine::Lattice::Dim{i0, st, end <= i0 ? 0 : (end - i0 + st - 1) / st};
}

/// Trip count of a literal loop.
std::optional<double> trip_count(const Stmt& s) {
  auto dim = literal_loop(s);
  if (!dim) return std::nullopt;
  return static_cast<double>(dim->extent);
}

std::optional<double> ops_of_stmt(const Stmt& s) {
  switch (s.kind) {
    case StmtKind::Assign: {
      if (!s.value) return 1.0;
      auto v = ops_of_expr(*s.value);
      if (!v) return std::nullopt;
      return 1.0 + *v;
    }
    case StmtKind::ElemAssign: {
      double total = 2.0;
      for (const sac::ExprPtr& i : s.indices) {
        auto x = ops_of_expr(*i);
        if (!x) return std::nullopt;
        total += *x;
      }
      auto v = ops_of_expr(*s.value);
      if (!v) return std::nullopt;
      return total + *v;
    }
    case StmtKind::For: {
      auto trips = trip_count(s);
      auto body = ops_of_block(s.body);
      if (!trips || !body) return std::nullopt;
      return *trips * (*body + 4.0) + 2.0;
    }
    case StmtKind::If: {
      auto c = ops_of_expr(*s.value);
      auto a = ops_of_block(s.body);
      auto b = ops_of_block(s.else_body);
      if (!c || !a || !b) return std::nullopt;
      return *c + std::max(*a, *b) + 1.0;
    }
    case StmtKind::Return: {
      auto v = ops_of_expr(*s.value);
      if (!v) return std::nullopt;
      return *v;
    }
  }
  return std::nullopt;
}

std::optional<double> ops_of_block(const std::vector<StmtPtr>& body) {
  double total = 0.0;
  for (const StmtPtr& s : body) {
    auto x = ops_of_stmt(*s);
    if (!x) return std::nullopt;
    total += *x;
  }
  return total;
}

}  // namespace

std::optional<double> estimate_ops(const std::vector<StmtPtr>& body) {
  return ops_of_block(body);
}

// --- planning -------------------------------------------------------------------------

namespace {

/// Address stride (in elements) between warp-adjacent threads (t0+1)
/// for every global access of the flattened generator; worst case when
/// an index is not affine (boundary generators keep `% extent`).
std::int64_t warp_stride_of(const Generator& g, const sac::affine::Lattice& lat,
                            const std::map<std::string, Shape>& shapes, const Shape& full,
                            std::int64_t step0) {
  sac::affine::AffineEval ae(lat);
  ae.bind_block(g.body);
  std::int64_t worst = 1;
  auto on_expr = [&](const Expr& x) {
    if (x.kind != ExprKind::Select || x.args[0]->kind != ExprKind::Var) return;
    auto it = shapes.find(x.args[0]->name);
    if (it == shapes.end()) return;
    const Index strides = it->second.strides();
    auto lin = ae.eval_vector(*x.args[1]);
    if (!lin || lin->size() != strides.size()) {
      worst = std::max<std::int64_t>(worst, 1 << 20);  // unknown: assume uncoalesced
      return;
    }
    std::int64_t delta = 0;
    for (std::size_t d = 0; d < lin->size(); ++d) {
      if (!(*lin)[d].coeff.empty()) delta += (*lin)[d].coeff[0] * strides[d];
    }
    worst = std::max<std::int64_t>(worst, std::llabs(delta));
  };
  for (const StmtPtr& s : g.body) {
    if (s->value) visit_all_exprs(*s->value, on_expr);
  }
  visit_all_exprs(*g.value, on_expr);
  // The output store moves step0 rows per adjacent thread.
  if (!full.dims().empty()) {
    worst = std::max<std::int64_t>(worst, std::llabs(step0 * full.strides()[0]));
  }
  return worst;
}

/// Whether two arithmetic progressions {x.lb + x.step*i : i < x.extent}
/// and {y.lb + y.step*j : j < y.extent} share no value: exact, by the
/// Chinese remainder theorem on the steps.
bool progressions_disjoint(const sac::affine::Lattice::Dim& x,
                           const sac::affine::Lattice::Dim& y) {
  if (x.extent == 0 || y.extent == 0) return true;
  const std::int64_t lo = std::max(x.lb, y.lb);
  const std::int64_t hi =
      std::min(x.lb + x.step * (x.extent - 1), y.lb + y.step * (y.extent - 1));
  if (lo > hi) return true;
  // v = x.lb + x.step*k with x.step*k == y.lb - x.lb (mod y.step).
  const std::int64_t g = std::gcd(x.step, y.step);
  const std::int64_t diff = y.lb - x.lb;
  if (diff % g != 0) return true;
  const std::int64_t mod = y.step / g;
  // Inverse of x.step/g modulo `mod` by the extended Euclidean algorithm.
  std::int64_t r0 = mod;
  std::int64_t r1 = (x.step / g) % mod;
  std::int64_t s0 = 0;
  std::int64_t s1 = 1;
  while (r1 != 0) {
    const std::int64_t q = r0 / r1;
    std::tie(r0, r1) = std::make_pair(r1, r0 - q * r1);
    std::tie(s0, s1) = std::make_pair(s1, s0 - q * s1);
  }
  auto floor_mod = [](__int128 a, __int128 m) { return ((a % m) + m) % m; };
  const __int128 k = floor_mod(static_cast<__int128>(diff / g) * s0, mod);
  const __int128 v0 = x.lb + static_cast<__int128>(x.step) * k;
  const __int128 period = static_cast<__int128>(x.step) * mod;
  // The smallest common value >= lo.
  const __int128 v = lo + floor_mod(v0 - lo, period);
  return v > hi;
}

/// The plan-time proof that a with-loop's generators write every frame
/// element: each lattice lies inside the frame, the lattices are
/// pairwise disjoint (two lattices are disjoint when some dimension's
/// progressions are) and their sizes sum to the frame size. Sizes alone
/// do not prove it: overlapping generators can reach the frame size and
/// still leave holes.
bool lattices_cover_frame(const std::vector<sac::affine::Lattice>& lattices, const Shape& frame) {
  std::int64_t points = 0;
  for (const auto& lat : lattices) {
    if (lat.rank() != frame.rank()) return false;
    std::int64_t n = 1;
    for (std::size_t d = 0; d < lat.rank(); ++d) {
      const auto& dim = lat.dims[d];
      n *= dim.extent;
      if (dim.extent > 0 &&
          (dim.lb < 0 || dim.step < 1 || dim.lb + dim.step * (dim.extent - 1) >= frame[d])) {
        return false;
      }
    }
    points += n;
  }
  if (points != frame.elements()) return false;
  for (std::size_t a = 0; a < lattices.size(); ++a) {
    for (std::size_t b = a + 1; b < lattices.size(); ++b) {
      bool disjoint = false;
      for (std::size_t d = 0; d < frame.rank() && !disjoint; ++d) {
        disjoint = progressions_disjoint(lattices[a].dims[d], lattices[b].dims[d]);
      }
      if (!disjoint) return false;
    }
  }
  return true;
}

std::optional<KernelGroup> plan_with(const std::string& target, const Expr& w,
                                     const std::map<std::string, Shape>& shapes,
                                     const std::map<std::string, sac::ElemType>& param_elems,
                                     const std::string& kernel_prefix) {
  if (w.op.kind == WithOpKind::Fold) return std::nullopt;  // reductions stay on the host
  auto it = shapes.find(target);
  if (it == shapes.end()) return std::nullopt;
  const Shape full = it->second;

  KernelGroup group;
  group.target = target;
  group.full = full;
  if (w.op.kind == WithOpKind::Modarray) {
    // modarray(T): a device copy of T followed by the generator
    // kernels overwriting their regions.
    if (w.op.shape_or_target->kind != ExprKind::Var) return std::nullopt;
    group.is_modarray = true;
    group.modarray_source = w.op.shape_or_target->name;
    if (!shapes.count(group.modarray_source) ||
        shapes.at(group.modarray_source) != full) {
      return std::nullopt;
    }
    std::size_t gen_rank = full.rank();
    if (!w.generators.empty()) {
      auto lat = sac::lattice_of(w.generators[0]);
      if (!lat) return std::nullopt;
      gen_rank = lat->rank();
    }
    if (gen_rank > full.rank()) return std::nullopt;
    group.frame = full.take(gen_rank);
  } else {
    auto shp = sac::literal_value(*w.op.shape_or_target);
    if (!shp || !shp->is_int()) return std::nullopt;
    group.frame = Shape(shp->as_index_vector());
    if (full.rank() < group.frame.rank()) return std::nullopt;
    if (full.take(group.frame.rank()) != group.frame) return std::nullopt;
  }
  const Shape frame = group.frame;
  const Shape cell = full.drop(frame.rank());

  if (w.op.default_value) {
    auto dv = sac::literal_value(*w.op.default_value);
    if (!dv || !dv->is_int() || dv->shape().rank() != 0) return std::nullopt;
    group.default_value = dv->as_int();
  }

  std::vector<sac::affine::Lattice> lattices;
  std::set<std::string> inputs;
  for (std::size_t gi = 0; gi < w.generators.size(); ++gi) {
    Generator g = sac::clone_generator(w.generators[gi]);
    auto lat = sac::lattice_of(g);
    if (!lat) return std::nullopt;
    if (!sac::flatten_cell(g, cell)) return std::nullopt;

    // Collect the result element expressions.
    std::vector<const Expr*> results;
    if (cell.rank() == 0) {
      results.push_back(g.value.get());
    } else {
      for (const sac::ExprPtr& e : g.value->args) results.push_back(e.get());
    }

    // Index variable slot names.
    std::vector<std::string> index_vars;
    if (!lat->vector_name.empty()) return std::nullopt;  // vector-var gens should be rare here
    index_vars = lat->scalar_names;

    // Array dims of everything selectable.
    std::map<std::string, Index> array_dims;
    std::set<std::string> used;
    auto scan = [&](const Expr& x) {
      if (x.kind == ExprKind::Select && x.args[0]->kind == ExprKind::Var) {
        used.insert(x.args[0]->name);
      }
    };
    for (const StmtPtr& s : g.body) {
      if (s->value) visit_all_exprs(*s->value, scan);
    }
    visit_all_exprs(*g.value, scan);
    for (const std::string& name : used) {
      auto sh = shapes.find(name);
      if (sh == shapes.end()) continue;  // local scalar chains — tape resolves or fails
      // Kernels are integer-only.
      auto pe = param_elems.find(name);
      if (pe != param_elems.end() && pe->second == sac::ElemType::Float) return std::nullopt;
      array_dims[name] = sh->second.dims();
    }

    // The simulated cost is that of the plain tape (the kernel the
    // paper's CUDA code runs); the host executes the tape specialised
    // to the lattice, whose proven loads skip their index arithmetic.
    auto plain = compile_tape(g.body, results, index_vars, array_dims);
    auto tape = compile_tape(g.body, results, index_vars, array_dims, &*lat);
    if (!plain || !tape) return std::nullopt;

    GenKernel k;
    k.name = cat(kernel_prefix, "_g", gi);
    k.lattice = *lat;
    k.cell = cell;
    k.threads = 1;
    std::int64_t pts = 1;
    for (const auto& d : lat->dims) pts *= d.extent;
    k.threads = pts;
    lattices.push_back(*lat);
    k.cost.flops_per_thread =
        plain->arith_ops() + 2.0 * static_cast<double>(lat->dims.size());
    k.cost.global_loads_per_thread = plain->array_loads();
    k.cost.global_stores_per_thread = static_cast<double>(std::max<std::int64_t>(cell.elements(), 1));
    k.cost.bytes_per_access = 4;  // the paper's frames are 32-bit ints
    k.cost.warp_access_stride =
        warp_stride_of(g, *lat, shapes, full, lat->dims.empty() ? 1 : lat->dims[0].step);
    Index extents;
    Index out_moves;
    const Index full_strides = full.strides();
    for (std::size_t d = 0; d < lat->rank(); ++d) {
      extents.push_back(lat->dims[d].extent);
      out_moves.push_back(lat->dims[d].step * full_strides[d]);
    }
    k.walk_dim = gpu::host_walk_dim(extents, out_moves);
    for (const std::string& a : tape->array_names) inputs.insert(a);
    k.tape = std::move(*tape);
    k.source = std::move(g);
    group.kernels.push_back(std::move(k));
  }
  group.needs_default_fill = !group.is_modarray && !lattices_cover_frame(lattices, frame);
  if (group.is_modarray) inputs.insert(group.modarray_source);
  group.inputs.assign(inputs.begin(), inputs.end());
  return group;
}

// --- host steps as compiled loop nests (DESIGN decision 19) ---------------------

/// Whether c0 + sum_d coeff[d] * t_d takes a distinct value at every
/// point of the lattice box: ordered by magnitude, every coefficient
/// exceeds the span of the smaller ones (a mixed-radix numbering).
bool injective(const sac::affine::Lin& off, const sac::affine::Lattice& lat) {
  std::vector<std::pair<std::int64_t, std::int64_t>> terms;  // |coeff|, extent
  for (std::size_t d = 0; d < lat.rank(); ++d) {
    if (lat.dims[d].extent < 2) continue;
    if (off.coeff[d] == 0) return false;
    terms.emplace_back(std::llabs(off.coeff[d]), lat.dims[d].extent);
  }
  std::sort(terms.begin(), terms.end());
  __int128 span = 0;
  for (const auto& [coeff, extent] : terms) {
    if (coeff <= span) return false;
    span += static_cast<__int128>(coeff) * (extent - 1);
  }
  return true;
}

/// What the host-step compiler knows at one point of the function body.
struct HostCompileContext {
  const std::vector<StmtPtr>* body;
  const std::map<std::string, Shape>* shapes;
  const std::vector<std::pair<sac::TypeSpec, std::string>>* params;
  /// Arrays that hold ints here: int parameters, kernel targets and
  /// copies of them.
  std::set<std::string> int_arrays;

  bool is_int_array(const std::string& name) const {
    auto it = shapes->find(name);
    return int_arrays.count(name) != 0 && it != shapes->end() && it->second.rank() > 0;
  }
  bool is_param(const std::string& name) const {
    return std::any_of(params->begin(), params->end(),
                       [&](const auto& p) { return p.second == name; });
  }
  /// Whether a statement after body[i] reads `name`.
  bool read_after(std::size_t i, const std::string& name) const {
    std::set<std::string> reads;
    for (std::size_t j = i + 1; j < body->size(); ++j) collect_reads(*(*body)[j], reads);
    return reads.count(name) != 0;
  }
};

/// Compiles a perfect loop nest into `nest`; returns why it cannot.
std::string compile_nest(const Stmt& loop, const HostCompileContext& ctx, HostNest& nest) {
  const Stmt* level = &loop;
  for (;;) {
    auto dim = literal_loop(*level);
    if (!dim) return "a loop's start, bound or step is not a literal";
    const auto& names = nest.lattice.scalar_names;
    if (std::find(names.begin(), names.end(), level->target) != names.end()) {
      return "a loop variable repeats";
    }
    nest.lattice.dims.push_back(*dim);
    nest.lattice.scalar_names.push_back(level->target);
    if (level->body.size() != 1 || level->body[0]->kind != StmtKind::For) break;
    level = level->body[0].get();
  }
  const std::vector<StmtPtr>& stores = level->body;
  if (stores.empty()) return "the innermost loop is empty";
  std::vector<const Expr*> results;
  std::vector<std::vector<const Expr*>> components;
  for (const StmtPtr& st : stores) {
    if (st->kind != StmtKind::ElemAssign) {
      return "the nest is not perfect or its innermost body is not element stores";
    }
    const auto& names = nest.lattice.scalar_names;
    if (std::find(names.begin(), names.end(), st->target) != names.end()) {
      return "a store's target is a loop variable";
    }
    if (!ctx.is_int_array(st->target)) return "a store's target is not a known int array";
    std::vector<const Expr*> comps;
    for (const sac::ExprPtr& i : st->indices) {
      if (i->kind == ExprKind::ArrayLit) {
        for (const sac::ExprPtr& c : i->args) comps.push_back(c.get());
      } else {
        comps.push_back(i.get());
      }
    }
    if (comps.size() != ctx.shapes->at(st->target).rank()) {
      return "a store does not write one element";
    }
    nest.targets.push_back(st->target);
    results.push_back(st->value.get());
    results.insert(results.end(), comps.begin(), comps.end());
    components.push_back(std::move(comps));
  }
  // Every array the nest selects from, bar the ones it stores to.
  std::map<std::string, Index> array_dims;
  bool reads_target = false;
  for (const StmtPtr& st : stores) {
    auto on_expr = [&](const Expr& x) {
      if (x.kind != ExprKind::Var) return;
      const auto& t = nest.targets;
      if (std::find(t.begin(), t.end(), x.name) != t.end()) reads_target = true;
      if (ctx.is_int_array(x.name)) array_dims[x.name] = ctx.shapes->at(x.name).dims();
    };
    visit_all_exprs(*st->value, on_expr);
    for (const sac::ExprPtr& i : st->indices) visit_all_exprs(*i, on_expr);
  }
  if (reads_target) return "the nest reads an array it stores to";
  for (const std::string& t : nest.targets) array_dims.erase(t);
  for (const std::string& v : nest.lattice.scalar_names) array_dims.erase(v);
  auto tape = compile_tape({}, results, nest.lattice.scalar_names, array_dims, &nest.lattice);
  if (!tape) return "the loop body is not tape-able int arithmetic over known arrays";
  if (can_throw(*tape)) return "a load or a division in the loop body is not proven safe";
  nest.tape = std::move(*tape);

  // Lanes follow the innermost loop unless one store is proven in bounds
  // and injective, so that no two points collide and none can fail.
  const std::size_t rank = nest.lattice.rank();
  nest.walk_dim = rank - 1;
  if (stores.size() != 1) return {};
  const sac::affine::AffineEval ae(nest.lattice, /*ranged=*/true);
  const Shape& target = ctx.shapes->at(nest.targets[0]);
  const Index strides = target.strides();
  sac::affine::Lin off;
  off.coeff.assign(rank, 0);
  // Terms below 2^30 keep the range and the offset sums below 2^63.
  constexpr std::int64_t kTermBound = std::int64_t{1} << 30;
  auto small = [](std::int64_t v) { return v > -kTermBound && v < kTermBound; };
  for (std::size_t d = 0; d < components[0].size(); ++d) {
    const auto lin = ae.eval_scalar(*components[0][d]);
    if (!lin || !small(lin->c0) || !std::all_of(lin->coeff.begin(), lin->coeff.end(), small)) {
      return {};
    }
    const auto [lo, hi] = ae.range(*lin);
    if (lo < 0 || hi >= target[d]) return {};
    for (std::size_t r = 0; r < rank; ++r) off.coeff[r] += strides[d] * lin->coeff[r];
  }
  if (!injective(off, nest.lattice)) return {};
  // The longest run, up to a full block of lanes; then the smallest
  // store stride.
  auto run_of = [&](std::size_t d) {
    return std::min<std::int64_t>(nest.lattice.dims[d].extent, kLanes);
  };
  for (std::size_t d = 0; d < rank; ++d) {
    const std::size_t w = nest.walk_dim;
    if (run_of(d) > run_of(w) ||
        (run_of(d) == run_of(w) && std::llabs(off.coeff[d]) < std::llabs(off.coeff[w]))) {
      nest.walk_dim = d;
    }
  }
  return {};
}

/// Compiles the host step of body[i] for i in `stmts` into `ops`;
/// returns why it cannot. `ctx.int_arrays` follows the step's copies.
std::string compile_host_step(const std::vector<std::size_t>& stmts, HostCompileContext& ctx,
                              std::vector<HostOp>& ops) {
  for (std::size_t i : stmts) {
    const Stmt& s = *(*ctx.body)[i];
    HostOp op;
    op.stmt = i;
    if (s.kind == StmtKind::Assign && s.value && s.value->kind == ExprKind::Var) {
      op.dst = s.target;
      op.src = s.value->name;
      if (!ctx.is_int_array(op.src)) return "a copy's source is not a known int array";
      if (op.dst == op.src) return "an array is copied onto itself";
      op.move = !ctx.is_param(op.src) && !ctx.read_after(i, op.src);
      ctx.int_arrays.insert(op.dst);
    } else if (s.kind == StmtKind::For) {
      op.nest.emplace();
      std::string why = compile_nest(s, ctx, *op.nest);
      if (!why.empty()) return why;
      for (const std::string& v : op.nest->lattice.scalar_names) ctx.int_arrays.erase(v);
    } else {
      return "a statement is neither a whole-array copy nor a loop nest";
    }
    ops.push_back(std::move(op));
  }
  return {};
}

/// Every name a statement (re)binds, nested ones included.
void collect_writes(const Stmt& s, std::set<std::string>& writes) {
  if (!s.target.empty()) writes.insert(s.target);
  for (const StmtPtr& c : s.body) collect_writes(*c, writes);
  for (const StmtPtr& c : s.else_body) collect_writes(*c, writes);
}

}  // namespace

CudaProgram CudaProgram::plan(const sac::CompiledFunction& fn) {
  CudaProgram prog;
  prog.fn_.fn = sac::FunDef{fn.fn.name, fn.fn.return_type, fn.fn.params,
                            sac::clone_block(fn.fn.body), fn.fn.line};
  prog.fn_.stats = fn.stats;
  prog.fn_.param_shapes = fn.param_shapes;
  prog.fn_.param_elems = fn.param_elems;
  prog.shapes_ = sac::infer_shapes(prog.fn_.fn.body, prog.fn_.param_shapes);

  const auto& body = prog.fn_.fn.body;
  HostCompileContext ctx{&body, &prog.shapes_, &prog.fn_.fn.params, {}};
  for (const auto& [name, elem] : prog.fn_.param_elems) {
    if (elem == sac::ElemType::Int) ctx.int_arrays.insert(name);
  }
  auto origin_of = [&](std::size_t i) {
    return body[i]->origin.empty() ? prog.fn_.fn.name : body[i]->origin;
  };
  auto flush_host = [&](std::vector<std::size_t>& pending) {
    if (pending.empty()) return;
    Step step;
    step.kind = Step::Kind::Host;
    step.origin = origin_of(pending.front());
    for (std::size_t i : pending) {
      if (origin_of(i) != step.origin) step.origin = prog.fn_.fn.name;
    }
    step.host.stmt_indices = pending;
    std::set<std::string> reads;
    for (std::size_t i : pending) collect_reads(*body[i], reads);
    for (const std::string& r : reads) {
      if (prog.shapes_.count(r) && prog.shapes_.at(r).rank() > 0) {
        step.host.array_reads.push_back(r);
      }
    }
    std::vector<StmtPtr> clones;
    for (std::size_t i : pending) clones.push_back(body[i]->clone());
    if (auto ops = ops_of_block(clones)) step.host.static_ops = *ops;
    HostCompileContext tried = ctx;
    step.host.interpreted_because = compile_host_step(pending, tried, step.host.ops);
    if (step.host.compiled()) {
      ctx = std::move(tried);
    } else {
      step.host.ops.clear();
      std::set<std::string> writes;
      for (std::size_t i : pending) collect_writes(*body[i], writes);
      for (const std::string& w : writes) ctx.int_arrays.erase(w);
    }
    prog.steps_.push_back(std::move(step));
    pending.clear();
  };

  std::vector<std::size_t> pending_host;
  for (std::size_t i = 0; i < body.size(); ++i) {
    const Stmt& s = *body[i];
    if (s.kind == StmtKind::Return) {
      if (s.value->kind == ExprKind::Var) {
        prog.return_var_ = s.value->name;
      } else {
        // Compute the return expression on the host into a pseudo-var.
        pending_host.push_back(i);
        prog.return_var_ = "__result";
      }
      continue;
    }
    if (s.kind == StmtKind::Assign && s.value && s.value->kind == ExprKind::With) {
      auto group = plan_with(s.target, *s.value, prog.shapes_, prog.fn_.param_elems,
                             cat(prog.fn_.fn.name, "_w", i));
      if (group) {
        flush_host(pending_host);
        Step step;
        step.kind = Step::Kind::Kernels;
        step.origin = origin_of(i);
        step.group = std::move(*group);
        ctx.int_arrays.insert(step.group.target);
        prog.steps_.push_back(std::move(step));
        continue;
      }
    }
    pending_host.push_back(i);
  }
  flush_host(pending_host);
  if (prog.return_var_.empty()) {
    throw BackendError(cat("function '", prog.fn_.fn.name, "' has no return statement"));
  }
  prog.bind();
  return prog;
}

int CudaProgram::kernel_count(const std::string& origin) const {
  int n = 0;
  for (const Step& s : steps_) {
    if (s.kind == Step::Kind::Kernels && (origin.empty() || s.origin == origin)) {
      n += static_cast<int>(s.group.kernels.size());
    }
  }
  return n;
}

std::set<std::string> CudaProgram::rows_of(const std::string& origin) const {
  std::set<std::string> rows;
  for (const Step& s : steps_) {
    if (s.origin != origin) continue;
    if (s.kind == Step::Kind::Host) {
      rows.insert(s.host.row);
      continue;
    }
    rows.insert({s.group.copy_row, s.group.init_row});
    for (const GenKernel& k : s.group.kernels) rows.insert(k.name);
  }
  return rows;
}

int CudaProgram::host_block_count() const {
  int n = 0;
  for (const Step& s : steps_) {
    if (s.kind == Step::Kind::Host) ++n;
  }
  return n;
}

int CudaProgram::compiled_host_block_count() const {
  int n = 0;
  for (const Step& s : steps_) {
    if (s.kind == Step::Kind::Host && s.host.compiled()) ++n;
  }
  return n;
}

// --- binding (DESIGN decision 20) ------------------------------------------------------

void CudaProgram::bind() {
  // Every name a run can bind, in name order: the id order is the order
  // the device buffers are freed in (descending), as the map runs kept
  // them in did, so the caching allocator hands out the same blocks.
  std::set<std::string> names;
  for (const auto& p : fn_.fn.params) names.insert(p.second);
  for (const StmtPtr& s : fn_.fn.body) {
    collect_reads(*s, names);
    collect_writes(*s, names);
  }
  names.insert("__result");
  names_.assign(names.begin(), names.end());
  auto id = [&](const std::string& name) {
    return static_cast<std::size_t>(std::lower_bound(names_.begin(), names_.end(), name) -
                                    names_.begin());
  };
  shape_of_.clear();
  for (const std::string& n : names_) {
    auto it = shapes_.find(n);
    shape_of_.push_back(it == shapes_.end() ? std::nullopt : std::optional<Shape>(it->second));
  }
  param_ids_.clear();
  for (const auto& p : fn_.fn.params) param_ids_.push_back(id(p.second));
  return_id_ = id(return_var_);
  bindings_.assign(names_.size(), Binding{});

  std::size_t most_reads = 0;
  for (Step& step : steps_) {
    if (step.kind == Step::Kind::Kernels) {
      KernelGroup& g = step.group;
      g.target_id = id(g.target);
      if (g.is_modarray) g.modarray_source_id = id(g.modarray_source);
      g.input_ids.clear();
      for (const std::string& in : g.inputs) g.input_ids.push_back(id(in));
      g.copy_row = g.target + "_copy";
      g.init_row = g.target + "_init";
      const Index out_strides = g.full.strides();
      for (GenKernel& k : g.kernels) {
        const std::size_t rank = k.lattice.dims.size();
        k.array_ids.clear();
        k.arrays.clear();
        for (const std::string& an : k.tape.array_names) {
          k.array_ids.push_back(id(an));
          const Shape& shp = shapes_.at(an);
          k.arrays.push_back({{}, shp.dims(), shp.strides()});
        }
        most_reads = std::max(most_reads, k.array_ids.size());
        k.index_fills.clear();
        for (std::size_t d = 0; d < rank; ++d) {
          const int slot = k.tape.input_slots[d];
          if (k.tape.reads_slot(slot)) k.index_fills.emplace_back(slot, d);
        }
        k.lin_steps.clear();
        for (const auto& lin : k.tape.lin_loads) {
          k.lin_steps.push_back(rank > 0 ? lin.coeff[k.walk_dim] : 0);
        }
        k.out_strides = out_strides;
      }
      continue;
    }
    HostBlock& h = step.host;
    h.row = step.origin + "_host";
    h.read_ids.clear();
    for (const std::string& r : h.array_reads) h.read_ids.push_back(id(r));
    std::set<std::string> writes;
    for (std::size_t i : h.stmt_indices) collect_writes(*fn_.fn.body[i], writes);
    h.write_ids.clear();
    for (const std::string& w : writes) h.write_ids.push_back(id(w));
    for (HostOp& op : h.ops) {
      if (!op.nest) {
        op.dst_id = id(op.dst);
        op.src_id = id(op.src);
        continue;
      }
      HostNest& nest = *op.nest;
      const KernelTape& tape = nest.tape;
      nest.array_ids.clear();
      nest.arrays.clear();
      for (const std::string& an : tape.array_names) {
        nest.array_ids.push_back(id(an));
        const Shape& shp = shapes_.at(an);
        nest.arrays.push_back({{}, shp.dims(), shp.strides()});
      }
      nest.stores.clear();
      std::size_t result = 0;
      for (const std::string& target : nest.targets) {
        HostNest::Store st;
        st.target = id(target);
        st.shape = shapes_.at(target);
        st.strides = st.shape.strides();
        st.value_slot = tape.result_slots[result++];
        for (std::size_t d = 0; d < st.shape.rank(); ++d) {
          st.index_slots.push_back(tape.result_slots[result++]);
        }
        nest.stores.push_back(std::move(st));
      }
      const std::size_t rank = nest.lattice.rank();
      nest.fills.clear();
      for (std::size_t d = 0; d < rank; ++d) {
        if (tape.reads_slot(tape.input_slots[d])) nest.fills.push_back(d);
      }
      nest.lin_steps.clear();
      for (const auto& lin : tape.lin_loads) nest.lin_steps.push_back(lin.coeff[nest.walk_dim]);
      nest.loop_var_ids.clear();
      for (const std::string& v : nest.lattice.scalar_names) nest.loop_var_ids.push_back(id(v));
    }
  }
  hazards_.clear();
  hazards_.reserve(most_reads);
}

// --- execution -------------------------------------------------------------------------

namespace {

using Bindings = std::vector<std::optional<Value>>;

/// `n` int64 counters of the calling thread's grow-only scratch (a
/// kernel body's per-chunk offsets and index vector).
std::span<std::int64_t> thread_counters(std::size_t n) {
  thread_local std::vector<std::int64_t> counters;
  if (counters.size() < n) counters.resize(n);
  return {counters.data(), n};
}

/// One generator kernel's launch: the plan's kernel, its tape arrays
/// bound to this run's device buffers, and the output buffer. The
/// launch body captures a pointer to it.
struct GenLaunch {
  const GenKernel* kernel;
  std::span<std::int32_t> out;
};

/// The generator kernel's body over thread ids [begin, end).
///
/// The generated code maps iGID to the lattice dimension 0 fastest
/// (`iGID % n0`, Figure 11) — the simulated GPU's mapping. Items are
/// independent under single assignment, so the host visits them in its
/// own order: ids decode once per run along the walk dimension, and
/// within a run iv, every proven load offset and the output index step
/// along it, so consecutive items touch neighbouring elements of
/// row-major frames.
void run_generator(const GenLaunch& g, std::int64_t begin, std::int64_t end) {
  const GenKernel& k = *g.kernel;
  const KernelTape& tape = k.tape;
  const auto& dims = k.lattice.dims;
  const std::size_t rank = dims.size();
  const std::size_t walk = k.walk_dim;
  const std::size_t loads = tape.lin_loads.size();
  TapeLanes lanes(tape, kLanes, TapeLanes::ThreadScratch{});
  const std::span<std::int64_t> counters = thread_counters(loads + rank);
  const std::span<std::int64_t> offsets = counters.first(loads);
  const std::span<std::int64_t> iv = counters.subspan(loads);
  const std::int64_t iv_step = rank > 0 ? dims[walk].step : 0;
  const std::int64_t out_step = iv_step * (rank > 0 ? k.out_strides[walk] : 0);
  for (std::int64_t tid = begin; tid < end;) {
    std::int64_t rest = tid;
    std::int64_t run = end - tid;
    std::int64_t out = 0;
    for (std::size_t j = 0; j < loads; ++j) offsets[j] = tape.lin_loads[j].c0;
    for (std::size_t i = 0; i < rank; ++i) {
      const std::size_t d = gpu::walk_order(i, walk);
      const auto& dim = dims[d];
      const std::int64_t t = rest % dim.extent;
      rest /= dim.extent;
      if (i == 0) run = std::min(run, dim.extent - t);
      iv[d] = dim.lb + dim.step * t;
      out += iv[d] * k.out_strides[d];
      for (std::size_t j = 0; j < loads; ++j) offsets[j] += tape.lin_loads[j].coeff[d] * t;
    }
    // The run goes through the tape kLanes items at a time; lane l is
    // the item l walk steps further on.
    for (std::int64_t done = 0; done < run;) {
      const int n = static_cast<int>(std::min<std::int64_t>(run - done, kLanes));
      for (const auto& [slot, d] : k.index_fills) {
        std::int64_t* row = lanes.slot(slot);
        const std::int64_t step = d == walk ? iv_step : 0;
        for (int l = 0; l < n; ++l) row[l] = iv[d] + l * step;
      }
      tape.run(lanes, n, k.arrays, offsets, k.lin_steps);
      for (std::size_t c = 0; c < tape.result_slots.size(); ++c) {
        const std::int64_t* row = lanes.slot(tape.result_slots[c]);
        const std::int64_t first = out + static_cast<std::int64_t>(c);
        for (int l = 0; l < n; ++l) {
          g.out[static_cast<std::size_t>(first + l * out_step)] = static_cast<std::int32_t>(row[l]);
        }
      }
      done += n;
      if (rank == 0) continue;
      out += n * out_step;
      iv[walk] += n * iv_step;
      for (std::size_t j = 0; j < loads; ++j) offsets[j] += n * k.lin_steps[j];
    }
    tid += run;
  }
}

/// A device-to-device copy or a fill of the output buffer: the bodies
/// of a modarray's copy and a with-loop's default fill.
struct CopyLaunch {
  std::span<const std::int32_t> src;
  std::span<std::int32_t> out;
  std::int32_t fill = 0;
};

}  // namespace

sac::Value CudaProgram::run(gpu::cuda::Runtime& rt, std::vector<sac::Value>& args,
                            const gpu::HostSpec& host, gpu::Profiler& host_profiler,
                            const RunOptions& options) {
  std::optional<Value> result;
  invoke(rt, args, nullptr, host, host_profiler, options, result);
  return result ? std::move(*result) : Value();
}

void CudaProgram::run(gpu::cuda::Runtime& rt, const PixelArray& frame,
                      const gpu::HostSpec& host, gpu::Profiler& host_profiler,
                      const RunOptions& options, std::optional<sac::Value>& result) {
  invoke(rt, {}, &frame, host, host_profiler, options, result);
}

void CudaProgram::invoke(gpu::cuda::Runtime& rt, std::span<sac::Value> args,
                         const PixelArray* frame, const gpu::HostSpec& host,
                         gpu::Profiler& host_profiler, const RunOptions& options,
                         std::optional<sac::Value>& result) {
  // Only the first repetition executes (see RunOptions).
  bool execute = options.execute;
  const std::size_t arity = frame != nullptr ? 1 : args.size();
  if (arity != fn_.fn.params.size()) {
    throw BackendError(cat("program '", fn_.fn.name, "' expects ", fn_.fn.params.size(),
                           " arguments, got ", arity));
  }
  const gpu::StreamSet ss = options.streams.value_or(gpu::StreamSet{});
  const bool async = options.streams.has_value();
  gpu::VirtualGpu& gpu = rt.gpu();
  gpu::BufferAllocator& allocator = gpu.allocator();

  for (std::size_t i = 0; i < args.size(); ++i) {
    Binding& b = bindings_[param_ids_[i]];
    b.host = std::move(args[i]);
    b.host_valid = true;
  }
  if (frame != nullptr) {
    Binding& b = bindings_[param_ids_[0]];
    b.pixels = frame;
    b.host_valid = true;
  }
  // However the call ends, the arguments go back to the caller, the
  // device buffers are freed in descending name order and the host
  // values are dropped: the next call starts from empty bindings.
  const ScopeExit end_run([&] {
    for (std::size_t i = 0; i < args.size(); ++i) {
      std::optional<Value>& v = bindings_[param_ids_[i]].host;
      if (v) args[i] = std::move(*v);
    }
    for (std::size_t id = bindings_.size(); id-- > 0;) {
      if (bindings_[id].device.valid()) allocator.free(bindings_[id].device);
    }
    for (Binding& b : bindings_) b = Binding{};
  });

  auto shape_of = [&](std::size_t id) -> const Shape& {
    if (!shape_of_[id]) throw BackendError(cat("no shape recorded for '", names_[id], "'"));
    return *shape_of_[id];
  };
  auto view = [&](std::size_t id) { return gpu.memory().view<std::int32_t>(bindings_[id].device); };
  // The int array bound to `id`, which the plan gave its recorded shape.
  auto bound_array = [&](std::size_t id) -> IntArray& {
    const std::optional<Value>& v = bindings_[id].host;
    if (!v || !v->is_int() || !shape_of_[id] || v->shape() != *shape_of_[id]) {
      throw BackendError(cat("host step: '", names_[id], "' is not the int array of shape ",
                             shape_of_[id] ? shape_of_[id]->to_string() : "?",
                             " the plan expects"));
    }
    return bindings_[id].host->ints();
  };

  auto ensure_device = [&](std::size_t id) {
    Binding& b = bindings_[id];
    if (b.device_valid) return;
    // Re-uploads of host-computed intermediates (the generic tiler's
    // results) stay in-line with the kernels; fresh param uploads go on
    // the copy-in stream so they can overlap earlier frames' compute.
    const gpu::StreamId stream = b.host_written ? ss.compute : ss.h2d;
    // The upload writes the whole array before any kernel reads it.
    if (!b.device.valid()) b.device = allocator.allocate_for_overwrite(shape_of(id).elements() * 4);
    if (execute && b.pixels != nullptr) {
      rt.host2device_frame(b.device, b.pixels->data(), stream);
    } else if (execute) {
      if (!b.host || !b.host->is_int()) {
        throw BackendError(cat("host value for '", names_[id], "' missing before host2device"));
      }
      rt.host2device_frame(b.device, b.host->ints().data(), stream);
    } else {
      rt.account_host2device_frame(b.device, stream);
    }
    b.device_valid = true;
  };

  auto ensure_host = [&](std::size_t id, gpu::StreamId stream) {
    Binding& b = bindings_[id];
    if (b.host_valid) return;
    if (!b.device_valid) {
      if (!execute) return;  // timing-only run: nothing to materialise
      throw BackendError(cat("value of '", names_[id], "' is nowhere"));
    }
    if (execute) {
      b.host = Value(IntArray(shape_of(id), rt.device2host_frame(b.device, stream)));
    } else {
      rt.account_device2host_frame(b.device, stream);
    }
    b.host_valid = true;
  };

  // A host step that reads a parameter passed as pixels reads it widened
  // to a mini-SaC int array, made here once per run.
  auto widen = [&](std::size_t id) {
    Binding& b = bindings_[id];
    if (b.pixels != nullptr && !b.host) b.host = Value(converted<std::int64_t>(*b.pixels));
  };

  auto set_scalar = [&](std::size_t id, std::int64_t v) {
    std::optional<Value>& slot = bindings_[id].host;
    if (slot && slot->is_int() && slot->is_scalar()) {
      slot->ints()[0] = v;
    } else {
      slot = Value::from_int(v);
    }
  };

  // Runs a compiled loop nest in place: lanes walk runs along
  // nest.walk_dim, every other dimension in loop order, and each lane
  // stores in body order, so the stores land in the interpreter's order.
  auto run_nest = [&](HostNest& nest) {
    const KernelTape& tape = nest.tape;
    for (std::size_t j = 0; j < nest.arrays.size(); ++j) {
      nest.arrays[j].wide = bound_array(nest.array_ids[j]).data();
    }
    for (HostNest::Store& st : nest.stores) st.data = bound_array(st.target).data();
    const auto& dims = nest.lattice.dims;
    const std::size_t rank = dims.size();
    const std::size_t walk = nest.walk_dim;
    // The loop variables end as the interpreter leaves them: one step
    // past their last value, for every loop that its outer loops entered.
    auto set_loop_variables = [&] {
      for (std::size_t d = 0; d < rank && (d == 0 || dims[d - 1].extent > 0); ++d) {
        set_scalar(nest.loop_var_ids[d], dims[d].lb + dims[d].step * dims[d].extent);
      }
    };
    for (const auto& d : dims) {
      if (d.extent == 0) return set_loop_variables();
    }
    TapeLanes lanes(tape, kLanes, TapeLanes::ThreadScratch{});
    const std::size_t loads = tape.lin_loads.size();
    const std::span<std::int64_t> counters = thread_counters(loads + rank);
    const std::span<std::int64_t> offsets = counters.first(loads);
    const std::span<std::int64_t> t = counters.subspan(loads);
    std::fill(t.begin(), t.end(), 0);
    for (;;) {
      for (std::size_t k = 0; k < loads; ++k) {
        offsets[k] = tape.lin_loads[k].c0;
        for (std::size_t d = 0; d < rank; ++d) offsets[k] += tape.lin_loads[k].coeff[d] * t[d];
      }
      const std::int64_t run = dims[walk].extent;
      for (std::int64_t done = 0; done < run;) {
        const int n = static_cast<int>(std::min<std::int64_t>(run - done, kLanes));
        for (std::size_t d : nest.fills) {
          std::int64_t* row = lanes.slot(tape.input_slots[d]);
          const std::int64_t first = dims[d].lb + dims[d].step * (d == walk ? done : t[d]);
          const std::int64_t step = d == walk ? dims[d].step : 0;
          for (int l = 0; l < n; ++l) row[l] = first + l * step;
        }
        tape.run(lanes, n, nest.arrays, offsets, nest.lin_steps);
        for (int l = 0; l < n; ++l) {
          for (const HostNest::Store& st : nest.stores) {
            std::int64_t off = 0;
            for (std::size_t c = 0; c < st.index_slots.size(); ++c) {
              const std::int64_t iv = lanes.slot(st.index_slots[c])[l];
              if (iv < 0 || iv >= st.shape[c]) {
                // The interpreter's error text: Shape::linearize raises it.
                Index at;
                for (const int slot : st.index_slots) at.push_back(lanes.slot(slot)[l]);
                st.shape.linearize(at);
              }
              off += iv * st.strides[c];
            }
            st.data[static_cast<std::size_t>(off)] = lanes.slot(st.value_slot)[l];
          }
        }
        done += n;
        for (std::size_t k = 0; k < loads; ++k) offsets[k] += n * nest.lin_steps[k];
      }
      // The next run: the dimensions but `walk` count up, the last fastest.
      std::size_t d = rank;
      while (d-- > 0) {
        if (d == walk) continue;
        if (++t[d] < dims[d].extent) break;
        t[d] = 0;
      }
      if (d == static_cast<std::size_t>(-1)) break;
    }
    set_loop_variables();
  };

  // The interpreter runs a host step over a name-keyed environment,
  // which it gets from and gives back to the bindings.
  auto interpret = [&](std::size_t si, const HostBlock& block) {
    std::map<std::string, Value> env;
    for (std::size_t id = 0; id < bindings_.size(); ++id) {
      if (bindings_[id].host) env.emplace(names_[id], std::move(*bindings_[id].host));
    }
    const ScopeExit give_back([&] {
      for (std::size_t id = 0; id < bindings_.size(); ++id) bindings_[id].host.reset();
      for (auto& [name, value] : env) {
        const auto it = std::lower_bound(names_.begin(), names_.end(), name);
        if (it != names_.end() && *it == name) {
          bindings_[static_cast<std::size_t>(it - names_.begin())].host = std::move(value);
        }
      }
    });
    std::vector<StmtPtr> stmts;
    for (std::size_t i : block.stmt_indices) stmts.push_back(fn_.fn.body[i]->clone());
    sac::Module empty_module;
    sac::Interp interp(empty_module);
    auto returned = interp.exec_stmts(stmts, env);
    measured_host_ops_[si] = interp.ops();
    if (returned) env.insert_or_assign("__result", std::move(*returned));
    return interp.ops();
  };

  // Repetition r runs step si as iteration r * steps + si.
  const std::size_t iterations = steps_.size() * static_cast<std::size_t>(options.repetitions);
  for (std::size_t n = 0; n < iterations; ++n) {
    const std::size_t si = n % steps_.size();
    execute = options.execute && n < steps_.size();
    Step& step = steps_[si];
    if (step.kind == Step::Kind::Kernels) {
      KernelGroup& group = step.group;
      for (const std::size_t in : group.input_ids) ensure_device(in);
      Binding& target = bindings_[group.target_id];
      if (!target.device.valid()) {
        // The modarray copy, the default fill or a plan-proven exact
        // cover by the generators writes every element before any read.
        target.device = allocator.allocate_for_overwrite(group.full.elements() * 4);
      }
      const gpu::BufferHandle writes[] = {target.device};
      CopyLaunch copy{{}, view(group.target_id)};

      if (group.is_modarray) {
        // Device-to-device copy of the modarray target (coalesced).
        const gpu::BufferHandle reads[] = {bindings_[group.modarray_source_id].device};
        copy.src = view(group.modarray_source_id);
        gpu::KernelLaunch launch;
        launch.name = group.copy_row;
        launch.threads = group.full.elements();
        launch.cost.global_loads_per_thread = 1;
        launch.cost.global_stores_per_thread = 1;
        launch.cost.warp_access_stride = 1;
        launch.reads = reads;
        launch.writes = writes;
        launch.body = [&copy](std::int64_t begin, std::int64_t end) {
          std::copy(copy.src.begin() + begin, copy.src.begin() + end, copy.out.begin() + begin);
        };
        rt.launch(launch, execute, ss.compute);
      }
      if (group.needs_default_fill) {
        copy.fill = static_cast<std::int32_t>(group.default_value);
        gpu::KernelLaunch launch;
        launch.name = group.init_row;
        launch.threads = group.full.elements();
        launch.cost.global_stores_per_thread = 1;
        launch.cost.warp_access_stride = 1;
        launch.writes = writes;
        launch.body = [&copy](std::int64_t begin, std::int64_t end) {
          std::fill(copy.out.begin() + begin, copy.out.begin() + end, copy.fill);
        };
        rt.launch(launch, execute, ss.compute);
      }

      for (GenKernel& k : group.kernels) {
        hazards_.clear();
        for (std::size_t j = 0; j < k.array_ids.size(); ++j) {
          k.arrays[j].data = view(k.array_ids[j]);
          hazards_.push_back(bindings_[k.array_ids[j]].device);
        }
        const GenLaunch gen{&k, copy.out};
        gpu::KernelLaunch launch;
        launch.name = k.name;
        launch.threads = k.threads;
        launch.cost = k.cost;
        launch.reads = hazards_;
        launch.writes = writes;
        launch.body = [&gen](std::int64_t begin, std::int64_t end) {
          run_generator(gen, begin, end);
        };
        rt.launch(launch, execute, ss.compute);
      }
      target.device_valid = true;
      target.host_valid = false;
      target.pixels = nullptr;
      continue;
    }

    // Host step. Its device2host fetches stay in-line with the kernels
    // (they are in the compute-critical path — the paper's generic
    // output-tiler penalty), and the host work itself occupies a host
    // timeline between the fetch and any re-upload.
    HostBlock& block = step.host;
    for (const std::size_t r : block.read_ids) {
      if (bindings_[r].device_valid) ensure_host(r, ss.compute);
      if (execute) widen(r);
    }
    double ops = block.static_ops;
    if (execute && block.compiled()) {
      for (HostOp& op : block.ops) {
        if (op.nest) {
          run_nest(*op.nest);
          continue;
        }
        IntArray& src = bound_array(op.src_id);
        bindings_[op.dst_id].host = op.move ? Value(std::move(src)) : Value(src);
      }
    } else if (execute) {
      const double measured = interpret(si, block);
      if (ops < 0) ops = measured;
    } else if (ops < 0) {
      auto m = measured_host_ops_.find(si);
      if (m == measured_host_ops_.end()) {
        throw BackendError("host step needs one executed run before timing-only runs");
      }
      ops = m->second;
    }
    // Everything the block wrote (including writes nested in
    // loops/conditionals) is host-resident; its device copies are stale.
    for (const std::size_t w : block.write_ids) {
      bindings_[w].host_valid = true;
      bindings_[w].device_valid = false;
      bindings_[w].host_written = true;
      bindings_[w].pixels = nullptr;
    }
    if (async) {
      // The host block starts once its fetches landed (compute-stream
      // tail covers them: fetches were just issued there) and blocks
      // the kernels that consume its results.
      gpu.wait_until(ss.host, gpu.stream_tail_us(ss.compute));
      gpu.run_host(block.row, host.time_us(ops), ss.host);
      gpu.wait_until(ss.compute, gpu.stream_tail_us(ss.host));
    } else {
      host_profiler.record(block.row, gpu::OpKind::Host, 1, host.time_us(ops));
    }
  }

  execute = options.execute;
  ensure_host(return_id_, ss.d2h);
  if (!execute) return;
  widen(return_id_);
  std::optional<Value>& ret = bindings_[return_id_].host;
  if (!ret) {
    throw BackendError(cat("result variable '", return_var_, "' was never produced"));
  }
  // A function that returns a parameter returns a copy: the parameter
  // goes back to the caller.
  const bool is_param =
      std::find(param_ids_.begin(), param_ids_.end(), return_id_) != param_ids_.end();
  result.emplace(is_param ? *ret : std::move(*ret));
}

// --- sequential lowering ---------------------------------------------------------------

HostRunResult run_sequential(const sac::CompiledFunction& fn, const std::vector<sac::Value>& args,
                             const gpu::HostSpec& host, bool execute) {
  HostRunResult out;
  auto ops = estimate_ops(fn.fn.body);
  sac::Module mod;
  mod.functions.push_back(
      sac::FunDef{fn.fn.name, fn.fn.return_type, fn.fn.params, sac::clone_block(fn.fn.body), 0});
  sac::Interp interp(mod);
  if (execute) {
    out.result = interp.call(fn.fn.name, args);
    if (!ops) ops = interp.ops();
  } else if (!ops) {
    throw BackendError("sequential run needs statically countable ops for timing-only mode");
  }
  out.ops = *ops;
  out.time_us = host.time_us(out.ops);
  return out;
}

}  // namespace saclo::sac_cuda
