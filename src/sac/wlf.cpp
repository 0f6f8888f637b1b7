#include "sac/wlf.hpp"

#include <algorithm>
#include <functional>
#include <set>

#include "core/fmt.hpp"
#include "sac/builtins.hpp"
#include "sac/interp.hpp"
#include "sac/specialize.hpp"

namespace saclo::sac {

namespace {

using affine::AffineEval;
using affine::Box;
using affine::DimRegion;
using affine::Lattice;
using affine::Lin;

// --- generic AST walking -------------------------------------------------------

void visit_exprs(Expr& e, const std::function<void(Expr&)>& fn);

void visit_exprs(Stmt& s, const std::function<void(Expr&)>& fn) {
  for (ExprPtr& i : s.indices) {
    if (i) visit_exprs(*i, fn);
  }
  if (s.value) visit_exprs(*s.value, fn);
  if (s.for_init) visit_exprs(*s.for_init, fn);
  if (s.for_cond) visit_exprs(*s.for_cond, fn);
  if (s.for_step) visit_exprs(*s.for_step, fn);
  for (StmtPtr& c : s.body) visit_exprs(*c, fn);
  for (StmtPtr& c : s.else_body) visit_exprs(*c, fn);
}

void visit_exprs(Expr& e, const std::function<void(Expr&)>& fn) {
  fn(e);
  for (ExprPtr& a : e.args) {
    if (a) visit_exprs(*a, fn);
  }
  for (Generator& g : e.generators) {
    if (g.lower) visit_exprs(*g.lower, fn);
    if (g.upper) visit_exprs(*g.upper, fn);
    if (g.step) visit_exprs(*g.step, fn);
    if (g.width) visit_exprs(*g.width, fn);
    for (StmtPtr& s : g.body) visit_exprs(*s, fn);
    if (g.value) visit_exprs(*g.value, fn);
  }
  if (e.op.shape_or_target) visit_exprs(*e.op.shape_or_target, fn);
  if (e.op.default_value) visit_exprs(*e.op.default_value, fn);
}

void count_var_uses(const Expr& e, std::map<std::string, int>& uses) {
  visit_exprs(const_cast<Expr&>(e), [&](Expr& x) {
    if (x.kind == ExprKind::Var) ++uses[x.name];
  });
}

std::set<std::string> collect_defined_names(const std::vector<StmtPtr>& body, const Expr* value) {
  std::set<std::string> names;
  // Targets at this level plus generator variables and body targets of
  // nested with-loops (they are all locals of the cloned region).
  for (const StmtPtr& s : body) {
    if (!s->target.empty()) names.insert(s->target);
    Stmt& ms = const_cast<Stmt&>(*s);
    visit_exprs(ms, [&](Expr& x) {
      for (const Generator& g : x.generators) {
        for (const std::string& v : g.vars) names.insert(v);
        for (const StmtPtr& bs : g.body) {
          if (!bs->target.empty()) names.insert(bs->target);
        }
      }
    });
  }
  if (value != nullptr) {
    visit_exprs(const_cast<Expr&>(*value), [&](Expr& x) {
      for (const Generator& g : x.generators) {
        for (const std::string& v : g.vars) names.insert(v);
        for (const StmtPtr& bs : g.body) {
          if (!bs->target.empty()) names.insert(bs->target);
        }
      }
    });
  }
  return names;
}

void apply_rename(Expr& e, const std::map<std::string, std::string>& rename) {
  visit_exprs(e, [&](Expr& x) {
    if (x.kind == ExprKind::Var) {
      auto it = rename.find(x.name);
      if (it != rename.end()) x.name = it->second;
    }
    for (Generator& g : x.generators) {
      for (std::string& v : g.vars) {
        auto it = rename.find(v);
        if (it != rename.end()) v = it->second;
      }
      for (StmtPtr& s : g.body) {
        auto it = rename.find(s->target);
        if (it != rename.end()) s->target = it->second;
      }
    }
  });
}

void apply_rename(std::vector<StmtPtr>& body, const std::map<std::string, std::string>& rename) {
  for (StmtPtr& s : body) {
    auto it = rename.find(s->target);
    if (it != rename.end()) s->target = it->second;
    visit_exprs(*s, [&](Expr& x) {
      if (x.kind == ExprKind::Var) {
        auto f = rename.find(x.name);
        if (f != rename.end()) x.name = f->second;
      }
      for (Generator& g : x.generators) {
        for (std::string& v : g.vars) {
          auto f = rename.find(v);
          if (f != rename.end()) v = f->second;
        }
        for (StmtPtr& bs : g.body) {
          auto f = rename.find(bs->target);
          if (f != rename.end()) bs->target = f->second;
        }
      }
    });
  }
}

}  // namespace

// --- concrete generators -------------------------------------------------------

std::int64_t ConcreteGen::points() const {
  std::int64_t n = 1;
  for (std::size_t d = 0; d < lb.size(); ++d) {
    if (ub[d] <= lb[d]) return 0;
    const std::int64_t span = ub[d] - lb[d];
    const std::int64_t tiles = (span + step[d] - 1) / step[d];
    const std::int64_t rem = span - (tiles - 1) * step[d];
    n *= (tiles - 1) * std::min(width[d], step[d]) + std::min(width[d], rem);
  }
  return n;
}

std::optional<ConcreteGen> concrete_generator(const Generator& g) {
  if (!g.lower || !g.upper) return std::nullopt;
  auto lo = literal_value(*g.lower);
  auto hi = literal_value(*g.upper);
  if (!lo || !hi || !lo->is_int() || !hi->is_int()) return std::nullopt;
  ConcreteGen out;
  out.lb = lo->as_index_vector();
  out.ub = hi->as_index_vector();
  if (!g.lower_inclusive) {
    for (auto& v : out.lb) ++v;
  }
  if (g.upper_inclusive) {
    for (auto& v : out.ub) ++v;
  }
  const std::size_t rank = out.lb.size();
  if (out.ub.size() != rank) return std::nullopt;
  if (g.step) {
    auto st = literal_value(*g.step);
    if (!st || !st->is_int()) return std::nullopt;
    out.step = st->as_index_vector();
    if (out.step.size() != rank) return std::nullopt;
  } else {
    out.step.assign(rank, 1);
  }
  if (g.width) {
    auto w = literal_value(*g.width);
    if (!w || !w->is_int()) return std::nullopt;
    out.width = w->as_index_vector();
    if (out.width.size() != rank) return std::nullopt;
  } else {
    out.width.assign(rank, 1);
  }
  // Normalise: width == step is a dense stride-1 range.
  for (std::size_t d = 0; d < rank; ++d) {
    if (out.width[d] == out.step[d]) {
      out.width[d] = 1;
      out.step[d] = 1;
    }
  }
  return out;
}

std::optional<Lattice> lattice_of(const Generator& g) {
  auto cg = concrete_generator(g);
  if (!cg) return std::nullopt;
  for (std::int64_t w : cg->width) {
    if (w != 1) return std::nullopt;
  }
  Lattice lat;
  lat.dims.reserve(cg->lb.size());
  for (std::size_t d = 0; d < cg->lb.size(); ++d) {
    Lattice::Dim dim;
    dim.lb = cg->lb[d];
    dim.step = cg->step[d];
    dim.extent = cg->ub[d] > cg->lb[d] ? (cg->ub[d] - 1 - cg->lb[d]) / cg->step[d] + 1 : 0;
    lat.dims.push_back(dim);
  }
  if (g.vector_var) {
    lat.vector_name = g.vars[0];
  } else {
    if (g.vars.size() != cg->lb.size()) return std::nullopt;
    lat.scalar_names = g.vars;
  }
  return lat;
}

OptStats& OptStats::operator+=(const OptStats& other) {
  folds += other.folds;
  generator_splits += other.generator_splits;
  mods_removed += other.mods_removed;
  modarrays_converted += other.modarrays_converted;
  stmts_removed += other.stmts_removed;
  return *this;
}

// --- the optimiser ----------------------------------------------------------------

namespace {

class Optimizer {
 public:
  OptStats stats;

  std::string fresh_name(const std::string& base) { return cat(base, "_w", counter_++); }

  // ---- generator-local simplification ------------------------------------

  /// True when the body is straight-line single-assignment (the form
  /// produced by the specialiser): only Assign/ElemAssign statements,
  /// every Assign target unique, every ElemAssign target previously
  /// Assign-ed in the body.
  static bool body_is_ssa(const std::vector<StmtPtr>& body) {
    std::set<std::string> assigned;
    for (const StmtPtr& s : body) {
      if (s->kind == StmtKind::Assign) {
        if (!assigned.insert(s->target).second) return false;
      } else if (s->kind == StmtKind::ElemAssign) {
        if (!assigned.count(s->target)) return false;
      } else {
        return false;
      }
    }
    return true;
  }

  /// The per-name relaxation of body_is_ssa: names that are assigned by
  /// exactly one top-level Assign of the body and never written any
  /// other way (no ElemAssign, no loop variable, no write in a nested
  /// block). Definition-forwarding rules apply only to these names, so
  /// they remain sound inside bodies that also contain loops or
  /// element assignments (e.g. the generic output tiler's for-nest).
  static std::set<std::string> compute_ssa_names(const std::vector<StmtPtr>& body) {
    std::map<std::string, int> top_assigns;
    std::set<std::string> excluded;
    std::function<void(const std::vector<StmtPtr>&, bool)> scan =
        [&](const std::vector<StmtPtr>& b, bool top) {
          for (const StmtPtr& s : b) {
            if (s->kind == StmtKind::Assign && top) {
              ++top_assigns[s->target];
            } else if (!s->target.empty()) {
              excluded.insert(s->target);
            }
            scan(s->body, false);
            scan(s->else_body, false);
          }
        };
    scan(body, true);
    std::set<std::string> out;
    for (const auto& [name, count] : top_assigns) {
      if (count == 1 && !excluded.count(name)) out.insert(name);
    }
    return out;
  }

  /// Replaces a vector index variable (`rep`) by destructured scalar
  /// components (`rep_0, rep_1, ...`), rewriting every use into an
  /// array literal of the components. This is what lets MV/CAT
  /// expansion, select-resolution and the kernel outliner see through
  /// whole-vector index arithmetic like `rep ++ pat`.
  void destructure_generator_var(Generator& g) {
    if (!g.vector_var || g.vars.empty()) return;
    auto cg = concrete_generator(g);
    if (!cg) return;
    const std::size_t rank = cg->lb.size();
    const std::string vec = g.vars[0];
    std::vector<std::string> comps;
    comps.reserve(rank);
    std::vector<ExprPtr> comp_vars;
    for (std::size_t d = 0; d < rank; ++d) {
      comps.push_back(fresh_name(vec));
      comp_vars.push_back(make_var(comps.back()));
    }
    auto replace = [&](Expr& root) {
      visit_exprs(root, [&](Expr& x) {
        if (x.kind != ExprKind::Var || x.name != vec) return;
        x.kind = ExprKind::ArrayLit;
        x.name.clear();
        x.args.clear();
        for (const ExprPtr& c : comp_vars) x.args.push_back(c->clone());
      });
    };
    for (StmtPtr& s : g.body) {
      if (s->value) replace(*s->value);
      for (ExprPtr& i : s->indices) {
        if (i) replace(*i);
      }
    }
    replace(*g.value);
    g.vector_var = false;
    g.vars = std::move(comps);
    changed_ = true;
  }

  void simplify_generator(Generator& g) {
    destructure_generator_var(g);
    for (int iter = 0; iter < 64; ++iter) {
      changed_ = false;
      ssa_names_ = compute_ssa_names(g.body);
      elem_chain_ok_.clear();
      if (body_is_ssa(g.body)) {
        for (const StmtPtr& bs : g.body) {
          if (bs->kind == StmtKind::Assign) elem_chain_ok_.insert(bs->target);
        }
      }
      uses_.clear();
      for (const StmtPtr& s : g.body) {
        visit_exprs(*s, [&](Expr& x) {
          if (x.kind == ExprKind::Var) ++uses_[x.name];
        });
      }
      count_var_uses(*g.value, uses_);

      // Rewrite statements in place (rules scan g.body, so it must stay
      // intact); remember hoisted statements and splice them in after.
      std::vector<std::pair<std::size_t, std::vector<StmtPtr>>> insertions;
      for (std::size_t i = 0; i < g.body.size(); ++i) {
        pending_.clear();
        Stmt& s = *g.body[i];
        if (s.value) s.value = rewrite(std::move(s.value), g);
        for (ExprPtr& ix : s.indices) {
          if (ix) ix = rewrite(std::move(ix), g);
        }
        if (s.for_init) s.for_init = rewrite(std::move(s.for_init), g);
        if (s.for_cond) s.for_cond = rewrite(std::move(s.for_cond), g);
        if (s.for_step) s.for_step = rewrite(std::move(s.for_step), g);
        if (!pending_.empty()) insertions.emplace_back(i, std::move(pending_));
        pending_.clear();
      }
      pending_.clear();
      g.value = rewrite(std::move(g.value), g);
      if (!pending_.empty()) insertions.emplace_back(g.body.size(), std::move(pending_));
      pending_.clear();
      if (!insertions.empty()) {
        std::vector<StmtPtr> new_body;
        std::size_t next = 0;
        for (std::size_t i = 0; i <= g.body.size(); ++i) {
          while (next < insertions.size() && insertions[next].first == i) {
            for (StmtPtr& p : insertions[next].second) new_body.push_back(std::move(p));
            ++next;
          }
          if (i < g.body.size()) new_body.push_back(std::move(g.body[i]));
        }
        g.body = std::move(new_body);
      }

      dce_generator_body(g);
      if (!changed_) break;
    }
  }

  void dce_generator_body(Generator& g) {
    // Liveness backwards from the value expression.
    std::set<std::string> live;
    count_uses_into(*g.value, live);
    std::vector<StmtPtr> kept;
    for (auto it = g.body.rbegin(); it != g.body.rend(); ++it) {
      Stmt& s = **it;
      bool keep = true;
      if (s.kind == StmtKind::Assign) {
        keep = live.count(s.target) > 0;
        if (keep) {
          live.erase(s.target);
          count_uses_into(*s.value, live);
        }
      } else if (s.kind == StmtKind::ElemAssign) {
        keep = live.count(s.target) > 0;
        if (keep) {
          for (const ExprPtr& i : s.indices) count_uses_into(*i, live);
          count_uses_into(*s.value, live);
          live.insert(s.target);  // the base definition is still needed
        }
      } else {
        // Conservative: keep non-straight-line statements and all their
        // uses.
        visit_exprs(s, [&](Expr& x) {
          if (x.kind == ExprKind::Var) live.insert(x.name);
        });
        live.insert(s.target);
      }
      if (keep) {
        kept.push_back(std::move(*it));
      } else {
        changed_ = true;
        ++stats.stmts_removed;
      }
    }
    std::reverse(kept.begin(), kept.end());
    g.body = std::move(kept);
  }

  static void count_uses_into(const Expr& e, std::set<std::string>& live) {
    visit_exprs(const_cast<Expr&>(e), [&](Expr& x) {
      if (x.kind == ExprKind::Var) live.insert(x.name);
    });
  }

  // ---- expression rewriting -------------------------------------------------

  ExprPtr rewrite(ExprPtr e, Generator& g) {
    // Bottom-up, but do not descend into nested with-loops (their
    // bodies belong to a different scope and are simplified when
    // inlined or by the top-level driver).
    if (e->kind != ExprKind::With) {
      for (ExprPtr& a : e->args) {
        if (a) a = rewrite(std::move(a), g);
      }
    }
    for (int guard = 0; guard < 32; ++guard) {
      ExprPtr next = apply_rules(*e, g);
      if (!next) break;
      changed_ = true;
      e = std::move(next);
      if (e->kind != ExprKind::With) {
        for (ExprPtr& a : e->args) {
          if (a) a = rewrite(std::move(a), g);
        }
      }
    }
    return e;
  }

  /// Returns the replacement expression or nullptr when no rule fires.
  ExprPtr apply_rules(Expr& e, Generator& g) {
    switch (e.kind) {
      case ExprKind::Select: return rules_select(e, g);
      case ExprKind::BinOp: return rules_binop(e);
      case ExprKind::Call: return rules_call(e);
      case ExprKind::Var: return rules_var(e, g);
      default: return nullptr;
    }
  }

  static std::optional<Index> lit_index(const Expr& e) {
    auto v = literal_value(e);
    if (!v || !v->is_int() || v->shape().rank() > 1) return std::nullopt;
    return v->shape().rank() == 0 ? Index{v->as_int()} : v->as_index_vector();
  }

  /// Wraps an index expression into ArrayLit form when possible.
  static ExprPtr as_index_array(ExprPtr idx) {
    if (idx->kind == ExprKind::ArrayLit) return idx;
    if (idx->kind == ExprKind::IntLit) {
      std::vector<ExprPtr> elems;
      elems.push_back(std::move(idx));
      return make_array_lit(std::move(elems));
    }
    return idx;
  }

  ExprPtr rules_select(Expr& e, Generator& g) {
    Expr& arr = *e.args[0];
    // Collapse a[i][j] -> a[i ++ j].
    if (arr.kind == ExprKind::Select) {
      ExprPtr inner_arr = std::move(arr.args[0]);
      ExprPtr i1 = as_index_array(std::move(arr.args[1]));
      ExprPtr i2 = as_index_array(std::move(e.args[1]));
      ExprPtr idx;
      if (i1->kind == ExprKind::ArrayLit && i2->kind == ExprKind::ArrayLit) {
        for (ExprPtr& a : i2->args) i1->args.push_back(std::move(a));
        idx = std::move(i1);
      } else {
        idx = make_bin(BinOpKind::Concat, std::move(i1), std::move(i2));
      }
      return make_select(std::move(inner_arr), std::move(idx));
    }
    auto idx = lit_index(*e.args[1]);
    if (!idx) return nullptr;
    if (arr.kind == ExprKind::ArrayLit) {
      if (idx->empty()) return nullptr;
      const std::int64_t c = (*idx)[0];
      if (c < 0 || c >= static_cast<std::int64_t>(arr.args.size())) return nullptr;
      ExprPtr elem = arr.args[static_cast<std::size_t>(c)]->clone();
      if (idx->size() == 1) return elem;
      return make_select(std::move(elem), make_index_lit(Index(idx->begin() + 1, idx->end())));
    }
    if (arr.kind == ExprKind::With) {
      return inline_with_at(arr, *idx);
    }
    if (arr.kind == ExprKind::Var &&
        (ssa_names_.count(arr.name) || elem_chain_ok_.count(arr.name))) {
      return select_through_var(arr.name, *idx, g);
    }
    return nullptr;
  }

  /// Resolves `w[idx]` for a with-loop value and a literal index:
  /// inlines the generator that covers the index (hoisting its body
  /// into the enclosing generator's body).
  ExprPtr inline_with_at(const Expr& w, const Index& idx) {
    std::size_t frame_rank = 0;
    if (w.op.kind == WithOpKind::Genarray) {
      auto shp = literal_value(*w.op.shape_or_target);
      if (!shp || !shp->is_int()) return nullptr;
      frame_rank = shp->as_index_vector().size();
    } else {
      // modarray: fall back to selecting from the target at uncovered
      // positions; handled below.
      if (!w.generators.empty() && !w.generators[0].vector_var) {
        frame_rank = w.generators[0].vars.size();
      } else {
        return nullptr;
      }
    }
    if (idx.size() < frame_rank) return nullptr;
    const Index prefix(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(frame_rank));
    const Index rest(idx.begin() + static_cast<std::ptrdiff_t>(frame_rank), idx.end());

    // Later generators win on overlap (they write last).
    for (std::size_t gi = w.generators.size(); gi-- > 0;) {
      const Generator& pg = w.generators[gi];
      auto cg = concrete_generator(pg);
      if (!cg) return nullptr;
      bool inside = cg->lb.size() == prefix.size();
      for (std::size_t d = 0; inside && d < prefix.size(); ++d) {
        inside = prefix[d] >= cg->lb[d] && prefix[d] < cg->ub[d] &&
                 (prefix[d] - cg->lb[d]) % cg->step[d] < cg->width[d];
      }
      if (!inside) continue;
      // Hoist a renamed copy of the generator body with the index
      // variables bound to the literal index.
      std::vector<StmtPtr> body = clone_block(pg.body);
      ExprPtr value = pg.value->clone();
      std::map<std::string, std::string> rename;
      for (const std::string& n : collect_defined_names(body, value.get())) {
        rename[n] = fresh_name(n);
      }
      for (const std::string& v : pg.vars) rename[v] = fresh_name(v);
      apply_rename(body, rename);
      apply_rename(*value, rename);

      auto bind = std::make_unique<Stmt>();
      bind->kind = StmtKind::Assign;
      if (pg.vector_var) {
        bind->target = rename[pg.vars[0]];
        bind->value = make_index_lit(prefix);
        pending_.push_back(std::move(bind));
      } else {
        for (std::size_t d = 0; d < pg.vars.size(); ++d) {
          auto b = std::make_unique<Stmt>();
          b->kind = StmtKind::Assign;
          b->target = rename[pg.vars[d]];
          b->value = make_int(prefix[d]);
          pending_.push_back(std::move(b));
        }
      }
      for (StmtPtr& s : body) pending_.push_back(std::move(s));
      if (!rest.empty()) return make_select(std::move(value), make_index_lit(rest));
      return value;
    }
    // Default element.
    if (w.op.kind == WithOpKind::Modarray) {
      return make_select(w.op.shape_or_target->clone(), make_index_lit(idx));
    }
    ExprPtr def = w.op.default_value ? w.op.default_value->clone() : make_int(0);
    if (!rest.empty()) return make_select(std::move(def), make_index_lit(rest));
    return def;
  }

  /// Resolves `v[idx]` by looking through v's definition in the current
  /// generator body (ArrayLit defs, with-loop defs, and
  /// `v = genarray...; v[c] = e;` element-assignment chains).
  ExprPtr select_through_var(const std::string& name, const Index& idx, Generator& g) {
    const Stmt* def = nullptr;
    std::vector<const Stmt*> elem_assigns;
    for (const StmtPtr& s : g.body) {
      if (s->target != name) continue;
      if (s->kind == StmtKind::Assign) def = s.get();
      if (s->kind == StmtKind::ElemAssign) elem_assigns.push_back(s.get());
    }
    if (def == nullptr || !def->value) return nullptr;

    // Element-assignment forwarding (last matching write wins). All
    // writes must have literal indices for the lookup to be sound.
    if (!elem_assigns.empty()) {
      for (const Stmt* ea : elem_assigns) {
        Index combined;
        for (const ExprPtr& i : ea->indices) {
          auto v = lit_index(*i);
          if (!v) return nullptr;
          combined.insert(combined.end(), v->begin(), v->end());
        }
      }
      for (auto it = elem_assigns.rbegin(); it != elem_assigns.rend(); ++it) {
        Index combined;
        for (const ExprPtr& i : (*it)->indices) {
          auto v = lit_index(*i);
          combined.insert(combined.end(), v->begin(), v->end());
        }
        if (combined == idx) return (*it)->value->clone();
        // A write covering a prefix of idx: select within it.
        if (combined.size() < idx.size() &&
            std::equal(combined.begin(), combined.end(), idx.begin())) {
          return make_select((*it)->value->clone(),
                             make_index_lit(Index(idx.begin() + static_cast<std::ptrdiff_t>(
                                                      combined.size()),
                                                  idx.end())));
        }
      }
      // No write matched: fall through to the base definition.
    }
    if (def->value->kind == ExprKind::With) {
      return inline_with_at(*def->value, idx);
    }
    if (def->value->kind == ExprKind::ArrayLit) {
      return apply_rules_select_arraylit(*def->value, idx);
    }
    return nullptr;
  }

  static ExprPtr apply_rules_select_arraylit(const Expr& lit, const Index& idx) {
    if (idx.empty()) return nullptr;
    const std::int64_t c = idx[0];
    if (c < 0 || c >= static_cast<std::int64_t>(lit.args.size())) return nullptr;
    ExprPtr elem = lit.args[static_cast<std::size_t>(c)]->clone();
    if (idx.size() == 1) return elem;
    return make_select(std::move(elem), make_index_lit(Index(idx.begin() + 1, idx.end())));
  }

  ExprPtr rules_binop(Expr& e) {
    Expr& a = *e.args[0];
    Expr& b = *e.args[1];
    // Constant folding.
    if (literal_value(a) && literal_value(b)) {
      Module empty;
      Interp interp(empty);
      return literal_expr(interp.eval_closed(e));
    }
    // Algebraic identities with scalar literals (safe elementwise).
    auto is_int_scalar = [](const Expr& x, std::int64_t v) {
      return x.kind == ExprKind::IntLit && x.int_val == v;
    };
    switch (e.bin_op) {
      case BinOpKind::Add:
        if (is_int_scalar(a, 0)) return std::move(e.args[1]);
        if (is_int_scalar(b, 0)) return std::move(e.args[0]);
        break;
      case BinOpKind::Sub:
        if (is_int_scalar(b, 0)) return std::move(e.args[0]);
        break;
      case BinOpKind::Mul:
        if (is_int_scalar(a, 1)) return std::move(e.args[1]);
        if (is_int_scalar(b, 1)) return std::move(e.args[0]);
        break;
      case BinOpKind::Div:
        if (is_int_scalar(b, 1)) return std::move(e.args[0]);
        break;
      default:
        break;
    }
    // Vector expansion: distribute arithmetic over array literals.
    const bool arith = e.bin_op == BinOpKind::Add || e.bin_op == BinOpKind::Sub ||
                       e.bin_op == BinOpKind::Mul || e.bin_op == BinOpKind::Div ||
                       e.bin_op == BinOpKind::Mod;
    if (arith) {
      const bool a_lit_arr = a.kind == ExprKind::ArrayLit;
      const bool b_lit_arr = b.kind == ExprKind::ArrayLit;
      const bool a_scalar = a.kind == ExprKind::IntLit || a.kind == ExprKind::FloatLit;
      const bool b_scalar = b.kind == ExprKind::IntLit || b.kind == ExprKind::FloatLit;
      if (a_lit_arr && b_lit_arr && a.args.size() == b.args.size()) {
        std::vector<ExprPtr> elems;
        elems.reserve(a.args.size());
        for (std::size_t i = 0; i < a.args.size(); ++i) {
          elems.push_back(make_bin(e.bin_op, std::move(a.args[i]), std::move(b.args[i])));
        }
        return make_array_lit(std::move(elems));
      }
      if (a_lit_arr && b_scalar) {
        std::vector<ExprPtr> elems;
        elems.reserve(a.args.size());
        for (ExprPtr& x : a.args) {
          elems.push_back(make_bin(e.bin_op, std::move(x), b.clone()));
        }
        return make_array_lit(std::move(elems));
      }
      if (a_scalar && b_lit_arr) {
        std::vector<ExprPtr> elems;
        elems.reserve(b.args.size());
        for (ExprPtr& x : b.args) {
          elems.push_back(make_bin(e.bin_op, a.clone(), std::move(x)));
        }
        return make_array_lit(std::move(elems));
      }
    }
    if (e.bin_op == BinOpKind::Concat) {
      ExprPtr av = as_index_array(std::move(e.args[0]));
      ExprPtr bv = as_index_array(std::move(e.args[1]));
      if (av->kind == ExprKind::ArrayLit && bv->kind == ExprKind::ArrayLit) {
        for (ExprPtr& x : bv->args) av->args.push_back(std::move(x));
        return av;
      }
      e.args[0] = std::move(av);
      e.args[1] = std::move(bv);
      return nullptr;
    }
    return nullptr;
  }

  ExprPtr rules_call(Expr& e) {
    // Constant folding of builtins.
    if (is_builtin(e.name)) {
      bool all_const = true;
      std::vector<Value> vals;
      for (const ExprPtr& a : e.args) {
        auto v = literal_value(*a);
        if (!v) {
          all_const = false;
          break;
        }
        vals.push_back(std::move(*v));
      }
      if (all_const) return literal_expr(eval_builtin(e.name, vals));
    }
    if (e.name == "CAT" && e.args.size() == 2) {
      ExprPtr av = as_index_array(std::move(e.args[0]));
      ExprPtr bv = as_index_array(std::move(e.args[1]));
      if (av->kind == ExprKind::ArrayLit && bv->kind == ExprKind::ArrayLit) {
        for (ExprPtr& x : bv->args) av->args.push_back(std::move(x));
        return av;
      }
      e.args[0] = std::move(av);
      e.args[1] = std::move(bv);
      return nullptr;
    }
    if (e.name == "MV" && e.args.size() == 2) {
      auto m = literal_value(*e.args[0]);
      if (!m || !m->is_int() || m->shape().rank() != 2) return nullptr;
      if (e.args[1]->kind != ExprKind::ArrayLit) return nullptr;
      const IntArray& mat = m->ints();
      const std::int64_t rows = mat.shape()[0];
      const std::int64_t cols = mat.shape()[1];
      if (cols != static_cast<std::int64_t>(e.args[1]->args.size())) return nullptr;
      std::vector<ExprPtr> out;
      out.reserve(static_cast<std::size_t>(rows));
      for (std::int64_t r = 0; r < rows; ++r) {
        ExprPtr acc;
        for (std::int64_t c = 0; c < cols; ++c) {
          const std::int64_t coeff = mat[r * cols + c];
          if (coeff == 0) continue;
          ExprPtr term = e.args[1]->args[static_cast<std::size_t>(c)]->clone();
          if (coeff != 1) term = make_bin(BinOpKind::Mul, make_int(coeff), std::move(term));
          acc = acc ? make_bin(BinOpKind::Add, std::move(acc), std::move(term)) : std::move(term);
        }
        out.push_back(acc ? std::move(acc) : make_int(0));
      }
      return make_array_lit(std::move(out));
    }
    return nullptr;
  }

  ExprPtr rules_var(Expr& e, Generator& g) {
    if (!ssa_names_.count(e.name)) return nullptr;
    const Stmt* def = nullptr;
    bool elem_assigned = false;
    for (const StmtPtr& s : g.body) {
      if (s->target != e.name) continue;
      if (s->kind == StmtKind::Assign) def = s.get();
      if (s->kind == StmtKind::ElemAssign) elem_assigned = true;
    }
    if (def == nullptr || !def->value || elem_assigned) return nullptr;
    const Expr& rhs = *def->value;
    if (rhs.kind == ExprKind::IntLit || rhs.kind == ExprKind::FloatLit ||
        rhs.kind == ExprKind::Var) {
      return rhs.clone();
    }
    if (rhs.kind == ExprKind::ArrayLit && rhs.args.size() <= 8) {
      bool simple = true;
      for (const ExprPtr& a : rhs.args) {
        if (node_count(*a) > 24) simple = false;
      }
      if (simple) return rhs.clone();
    }
    // Single-use inlining of pure, with-free definitions.
    auto u = uses_.find(e.name);
    if (u != uses_.end() && u->second == 1 && !contains_with(rhs) && node_count(rhs) <= 64) {
      return rhs.clone();
    }
    return nullptr;
  }

  static int node_count(const Expr& e) {
    int n = 0;
    visit_exprs(const_cast<Expr&>(e), [&](Expr&) { ++n; });
    return n;
  }
  static bool contains_with(const Expr& e) {
    bool found = false;
    visit_exprs(const_cast<Expr&>(e), [&](Expr& x) {
      if (x.kind == ExprKind::With) found = true;
    });
    return found;
  }

  // ---- with-loop folding ------------------------------------------------------

  struct Producer {
    const Expr* with = nullptr;
    std::size_t stmt_index = 0;
    std::size_t frame_rank = 0;
  };

  std::map<std::string, Producer> find_producers(const std::vector<StmtPtr>& body) {
    std::map<std::string, Producer> out;
    std::map<std::string, int> assign_counts;
    std::set<std::string> elem_assigned;
    std::function<void(const std::vector<StmtPtr>&)> scan = [&](const std::vector<StmtPtr>& b) {
      for (const StmtPtr& s : b) {
        if (s->kind == StmtKind::Assign || s->kind == StmtKind::For) ++assign_counts[s->target];
        if (s->kind == StmtKind::ElemAssign) elem_assigned.insert(s->target);
        scan(s->body);
        scan(s->else_body);
      }
    };
    scan(body);
    for (std::size_t i = 0; i < body.size(); ++i) {
      const Stmt& s = *body[i];
      if (s.kind != StmtKind::Assign || !s.value || s.value->kind != ExprKind::With) continue;
      if (assign_counts[s.target] != 1 || elem_assigned.count(s.target)) continue;
      const Expr& w = *s.value;
      if (w.op.kind != WithOpKind::Genarray) continue;
      auto shp = literal_value(*w.op.shape_or_target);
      if (!shp || !shp->is_int()) continue;
      bool ok = true;
      for (const Generator& g : w.generators) {
        if (!lattice_of(g)) ok = false;
        for (const StmtPtr& bs : g.body) {
          if (bs->kind == StmtKind::For || bs->kind == StmtKind::If) ok = false;
        }
        if (!body_is_ssa(g.body)) ok = false;
      }
      if (!ok) continue;
      Producer p;
      p.with = &w;
      p.stmt_index = i;
      p.frame_rank = shp->as_index_vector().size();
      out.emplace(s.target, p);
    }
    return out;
  }

  /// Performs at most one fold, trying the consumers from `next` on;
  /// true when the body changed. A fold rewrites only its consumer, so
  /// the consumers before it stay unfoldable: `next` moves to it.
  bool fold_step(std::vector<StmtPtr>& body, std::size_t& next) {
    const auto producers = find_producers(body);
    if (producers.empty()) return false;
    for (std::size_t i = next; i < body.size(); ++i) {
      next = i;
      Stmt& s = *body[i];
      if (s.kind != StmtKind::Assign || !s.value || s.value->kind != ExprKind::With) continue;
      Expr& w = *s.value;
      for (std::size_t gi = 0; gi < w.generators.size(); ++gi) {
        if (try_fold_generator(w, gi, producers, i)) return true;
      }
    }
    return false;
  }

  struct Candidate {
    std::string producer;
    std::vector<Lin> index;
  };

  std::optional<Candidate> find_candidate(const Generator& g,
                                          const AffineEval& ae,
                                          const std::map<std::string, Producer>& producers,
                                          std::size_t consumer_index) {
    std::optional<Candidate> found;
    auto scan_expr = [&](const Expr& root) {
      visit_exprs(const_cast<Expr&>(root), [&](Expr& x) {
        if (found) return;
        if (x.kind != ExprKind::Select) return;
        if (x.args[0]->kind != ExprKind::Var) return;
        auto it = producers.find(x.args[0]->name);
        if (it == producers.end() || it->second.stmt_index >= consumer_index) return;
        auto f = ae.eval_vector(*x.args[1]);
        if (!f) return;
        if (f->size() < it->second.frame_rank) return;
        found = Candidate{x.args[0]->name, std::move(*f)};
      });
    };
    for (const StmtPtr& bs : g.body) {
      if (bs->value) scan_expr(*bs->value);
      if (found) return found;
    }
    scan_expr(*g.value);
    return found;
  }

  /// Membership constraints of one producer generator, as a box over
  /// the consumer lattice; nullopt when unsupported (non-univariate
  /// index components etc.), in which case folding is abandoned.
  /// The inner optional is empty when the producer generator can never
  /// match.
  std::optional<std::optional<Box>> membership_box(const std::vector<Lin>& f,
                                                   const ConcreteGen& pg, const Lattice& lat) {
    Box box;
    box.reserve(lat.rank());
    for (std::size_t d = 0; d < lat.rank(); ++d) {
      box.push_back(DimRegion::full(lat.dims[d].extent));
    }
    for (std::size_t d = 0; d < pg.lb.size(); ++d) {
      const Lin& lin = f[d];
      const std::int64_t plb = pg.lb[d];
      const std::int64_t pub = pg.ub[d];
      const std::int64_t pstep = pg.step[d];
      const std::int64_t pwidth = pg.width[d];
      if (pwidth != 1 && pwidth != pstep) return std::nullopt;
      int var = -1;
      for (std::size_t k = 0; k < lin.coeff.size(); ++k) {
        if (lin.coeff[k] != 0) {
          if (var >= 0) return std::nullopt;  // multivariate component
          var = static_cast<int>(k);
        }
      }
      if (var < 0) {
        const std::int64_t c = lin.c0;
        const bool inside =
            c >= plb && c < pub && (pwidth == pstep || (c - plb) % pstep < pwidth);
        if (!inside) return std::optional<std::optional<Box>>{std::optional<Box>{}};
        continue;
      }
      const std::int64_t beta = lin.coeff[static_cast<std::size_t>(var)];
      if (beta <= 0) return std::nullopt;
      DimRegion c;
      c.lo = ceil_div(plb - lin.c0, beta);
      c.hi = ceil_div(pub - lin.c0, beta);
      c.r = 0;
      c.m = 1;
      if (pstep > 1 && pwidth == 1) {
        // beta*t + c0 == plb (mod pstep)
        const std::int64_t gcd = std::gcd(beta, pstep);
        if (((plb - lin.c0) % gcd + gcd) % gcd != 0) {
          return std::optional<std::optional<Box>>{std::optional<Box>{}};
        }
        const std::int64_t m = pstep / gcd;
        std::int64_t r = -1;
        for (std::int64_t t = 0; t < m; ++t) {
          if (((beta * t + lin.c0 - plb) % pstep + pstep) % pstep == 0) {
            r = t;
            break;
          }
        }
        if (r < 0) return std::optional<std::optional<Box>>{std::optional<Box>{}};
        c.r = r;
        c.m = m;
      }
      auto inter = box[static_cast<std::size_t>(var)].intersect(c);
      if (!inter) return std::optional<std::optional<Box>>{std::optional<Box>{}};
      box[static_cast<std::size_t>(var)] = *inter;
    }
    return std::optional<std::optional<Box>>{std::move(box)};
  }

  static std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
    // b > 0
    return a >= 0 ? (a + b - 1) / b : -((-a) / b);
  }

  Generator remake(const Generator& g, const Lattice& lat, const Box& box) {
    Generator ng = clone_generator(g);
    Index lb(lat.rank()), ub(lat.rank()), step(lat.rank());
    for (std::size_t d = 0; d < lat.rank(); ++d) {
      const auto& dim = lat.dims[d];
      lb[d] = dim.lb + dim.step * box[d].first();
      step[d] = dim.step * box[d].m;
      ub[d] = dim.lb + dim.step * box[d].last() + 1;
    }
    ng.lower = make_index_lit(lb);
    ng.lower_inclusive = true;
    ng.upper = make_index_lit(ub);
    ng.upper_inclusive = false;
    bool unit = true;
    for (std::int64_t s : step) {
      if (s != 1) unit = false;
    }
    ng.step = unit ? nullptr : make_index_lit(step);
    ng.width = nullptr;
    return ng;
  }

  bool try_fold_generator(Expr& w, std::size_t gi, const std::map<std::string, Producer>& producers,
                          std::size_t consumer_index) {
    Generator& g = w.generators[gi];
    auto lat = lattice_of(g);
    if (!lat) return false;
    AffineEval ae(*lat);
    ae.bind_block(g.body);
    auto cand = find_candidate(g, ae, producers, consumer_index);
    if (!cand) return false;
    const Producer& prod = producers.at(cand->producer);
    const Expr& pw = *prod.with;
    const std::size_t R = prod.frame_rank;

    // Region decomposition: later producer generators win on overlap.
    struct Piece {
      Box box;
      int pg = -1;  // -1 == default
    };
    std::vector<Piece> pieces;
    Box full;
    for (std::size_t d = 0; d < lat->rank(); ++d) {
      full.push_back(DimRegion::full(lat->dims[d].extent));
    }
    std::vector<Box> remaining{full};
    const std::vector<Lin> frame_index(cand->index.begin(),
                                       cand->index.begin() + static_cast<std::ptrdiff_t>(R));
    for (std::size_t pi = pw.generators.size(); pi-- > 0;) {
      auto cg = concrete_generator(pw.generators[pi]);
      if (!cg) return false;
      auto mbox = membership_box(frame_index, *cg, *lat);
      if (!mbox) return false;  // unsupported shape: abandon the fold
      if (!*mbox) continue;     // never matches
      std::vector<Box> next;
      for (Box& b : remaining) {
        if (auto inter = affine::box_intersect(b, **mbox)) {
          pieces.push_back(Piece{std::move(*inter), static_cast<int>(pi)});
        }
        for (Box& rest : affine::box_subtract(b, **mbox)) next.push_back(std::move(rest));
      }
      remaining = std::move(next);
    }
    for (Box& b : remaining) pieces.push_back(Piece{std::move(b), -1});

    if (pieces.empty()) return false;

    // Build the substituted sub-generators.
    std::vector<Generator> new_gens;
    for (Piece& piece : pieces) {
      Generator ng = remake(g, *lat, piece.box);
      substitute_selects(ng, *lat, cand->producer, cand->index, pw, piece.pg, R);
      simplify_generator(ng);
      new_gens.push_back(std::move(ng));
    }
    ++stats.folds;
    stats.generator_splits += static_cast<int>(new_gens.size()) - 1;
    w.generators.erase(w.generators.begin() + static_cast<std::ptrdiff_t>(gi));
    for (std::size_t k = 0; k < new_gens.size(); ++k) {
      w.generators.insert(w.generators.begin() + static_cast<std::ptrdiff_t>(gi + k),
                          std::move(new_gens[k]));
    }
    return true;
  }

  /// Replaces every select of `pname` whose affine index equals `f`
  /// inside the sub-generator with the producer's cell expression
  /// (generator `pg_index` of `pw`, or the default when -1).
  void substitute_selects(Generator& ng, const Lattice& lat, const std::string& pname,
                          const std::vector<Lin>& f, const Expr& pw, int pg_index,
                          std::size_t frame_rank) {
    AffineEval ae(lat);
    ae.bind_block(ng.body);
    subst_hoist_.clear();
    auto subst_in = [&](ExprPtr& slot) {
      if (!slot) return;
      std::function<void(ExprPtr&)> walk = [&](ExprPtr& node) {
        for (ExprPtr& a : node->args) {
          if (a) walk(a);
        }
        if (node->kind == ExprKind::Select && node->args[0]->kind == ExprKind::Var &&
            node->args[0]->name == pname) {
          auto fi = ae.eval_vector(*node->args[1]);
          if (fi && *fi == f) {
            node = build_substitution(ng, lat, f, pw, pg_index, frame_rank);
          }
        }
      };
      walk(slot);
    };
    for (StmtPtr& s : ng.body) {
      subst_in(s->value);
      for (ExprPtr& i : s->indices) subst_in(i);
    }
    subst_in(ng.value);
    // Prepend the hoisted producer bodies (they only reference the
    // consumer's index variables and outer-scope names).
    if (!subst_hoist_.empty()) {
      std::vector<StmtPtr> new_body;
      for (StmtPtr& b : subst_hoist_) new_body.push_back(std::move(b));
      for (StmtPtr& b : ng.body) new_body.push_back(std::move(b));
      ng.body = std::move(new_body);
      subst_hoist_.clear();
    }
  }

  ExprPtr build_substitution(Generator& ng, const Lattice& lat, const std::vector<Lin>& f,
                             const Expr& pw, int pg_index, std::size_t frame_rank) {
    std::vector<ExprPtr> rest_exprs;
    for (std::size_t d = frame_rank; d < f.size(); ++d) {
      rest_exprs.push_back(affine::lin_to_expr(f[d], lat));
    }
    if (pg_index < 0) {
      ExprPtr def = pw.op.default_value ? pw.op.default_value->clone() : make_int(0);
      if (!rest_exprs.empty()) {
        return make_select(std::move(def), make_array_lit(std::move(rest_exprs)));
      }
      return def;
    }
    const Generator& pg = pw.generators[static_cast<std::size_t>(pg_index)];
    std::vector<StmtPtr> body = clone_block(pg.body);
    ExprPtr value = pg.value->clone();
    std::map<std::string, std::string> rename;
    for (const std::string& n : collect_defined_names(body, value.get())) {
      rename[n] = fresh_name(n);
    }
    for (const std::string& v : pg.vars) rename[v] = fresh_name(v);
    apply_rename(body, rename);
    apply_rename(*value, rename);

    std::vector<StmtPtr> binds;
    if (pg.vector_var) {
      std::vector<ExprPtr> comps;
      for (std::size_t d = 0; d < frame_rank; ++d) {
        comps.push_back(affine::lin_to_expr(f[d], lat));
      }
      auto b = std::make_unique<Stmt>();
      b->kind = StmtKind::Assign;
      b->target = rename[pg.vars[0]];
      b->value = make_array_lit(std::move(comps));
      binds.push_back(std::move(b));
    } else {
      for (std::size_t d = 0; d < pg.vars.size(); ++d) {
        auto b = std::make_unique<Stmt>();
        b->kind = StmtKind::Assign;
        b->target = rename[pg.vars[d]];
        b->value = affine::lin_to_expr(f[d], lat);
        binds.push_back(std::move(b));
      }
    }
    // Queue the bindings and the producer body for prepending once the
    // substitution walk over the sub-generator finishes.
    for (StmtPtr& b : binds) subst_hoist_.push_back(std::move(b));
    for (StmtPtr& b : body) subst_hoist_.push_back(std::move(b));
    (void)ng;

    if (!rest_exprs.empty()) {
      return make_select(std::move(value), make_array_lit(std::move(rest_exprs)));
    }
    return value;
  }

  // ---- %-elimination ----------------------------------------------------------

  /// Drops or splits away at most one `%`, trying the statements from
  /// `next` on (as fold_step: a step rewrites only its own with-loop).
  bool mod_split_step(std::vector<StmtPtr>& body, std::size_t& next) {
    for (std::size_t i = next; i < body.size(); ++i) {
      next = i;
      Stmt& s = *body[i];
      if (s.kind != StmtKind::Assign || !s.value || s.value->kind != ExprKind::With) continue;
      Expr& w = *s.value;
      for (std::size_t gi = 0; gi < w.generators.size(); ++gi) {
        if (mod_split_generator(w, gi)) return true;
      }
    }
    return false;
  }

  bool mod_split_generator(Expr& w, std::size_t gi) {
    Generator& g = w.generators[gi];
    auto lat = lattice_of(g);
    if (!lat) return false;
    AffineEval ae(*lat);
    ae.bind_block(g.body);

    // First try: drop mods that are provably in range.
    bool dropped = false;
    auto drop_in = [&](ExprPtr& slot) {
      if (!slot) return;
      std::function<void(ExprPtr&)> walk = [&](ExprPtr& node) {
        for (ExprPtr& a : node->args) {
          if (a) walk(a);
        }
        if (node->kind != ExprKind::BinOp || node->bin_op != BinOpKind::Mod) return;
        if (node->args[1]->kind != ExprKind::IntLit || node->args[1]->int_val <= 0) return;
        auto lin = ae.eval_scalar(*node->args[0]);
        if (!lin) return;
        auto [lo, hi] = ae.range(*lin);
        if (lo >= 0 && hi < node->args[1]->int_val) {
          node = std::move(node->args[0]);
          ++stats.mods_removed;
          dropped = true;
        }
      };
      walk(slot);
    };
    for (StmtPtr& s : g.body) {
      drop_in(s->value);
      for (ExprPtr& i : s->indices) drop_in(i);
    }
    drop_in(g.value);
    if (dropped) return true;

    // Second: find a mod that becomes droppable after splitting one
    // lattice dimension.
    std::optional<std::pair<std::size_t, std::int64_t>> split;  // (dim, t-threshold)
    auto find_split = [&](ExprPtr& slot) {
      if (!slot || split) return;
      std::function<void(const Expr&)> walk = [&](const Expr& node) {
        if (split) return;
        for (const ExprPtr& a : node.args) {
          if (a) walk(*a);
        }
        if (split) return;
        if (node.kind != ExprKind::BinOp || node.bin_op != BinOpKind::Mod) return;
        if (node.args[1]->kind != ExprKind::IntLit || node.args[1]->int_val <= 0) return;
        const std::int64_t K = node.args[1]->int_val;
        auto lin = ae.eval_scalar(*node.args[0]);
        if (!lin || lin->c0 < 0) return;
        int var = -1;
        for (std::size_t k = 0; k < lin->coeff.size(); ++k) {
          if (lin->coeff[k] != 0) {
            if (var >= 0) return;
            var = static_cast<int>(k);
          }
        }
        if (var < 0) return;
        const std::int64_t beta = lin->coeff[static_cast<std::size_t>(var)];
        if (beta <= 0) return;
        // In range while beta*t + c0 < K  =>  t < ceil((K - c0)/beta).
        const std::int64_t thr = ceil_div(K - lin->c0, beta);
        const std::int64_t extent = lat->dims[static_cast<std::size_t>(var)].extent;
        if (thr > 0 && thr < extent) {
          split = {static_cast<std::size_t>(var), thr};
        }
      };
      walk(*slot);
    };
    for (StmtPtr& s : g.body) {
      find_split(s->value);
      for (ExprPtr& i : s->indices) find_split(i);
    }
    find_split(g.value);
    if (!split) return false;

    const auto [dim, thr] = *split;
    Box inner, outer;
    for (std::size_t d = 0; d < lat->rank(); ++d) {
      inner.push_back(DimRegion::full(lat->dims[d].extent));
      outer.push_back(DimRegion::full(lat->dims[d].extent));
    }
    inner[dim].hi = thr;
    outer[dim].lo = thr;
    Generator g_in = remake(g, *lat, inner);
    Generator g_out = remake(g, *lat, outer);
    simplify_generator(g_in);
    simplify_generator(g_out);
    ++stats.generator_splits;
    w.generators.erase(w.generators.begin() + static_cast<std::ptrdiff_t>(gi));
    w.generators.insert(w.generators.begin() + static_cast<std::ptrdiff_t>(gi), std::move(g_out));
    w.generators.insert(w.generators.begin() + static_cast<std::ptrdiff_t>(gi), std::move(g_in));
    return true;
  }

  // ---- dead code elimination ----------------------------------------------------

  void dce(std::vector<StmtPtr>& body) {
    std::set<std::string> live;
    std::vector<StmtPtr> kept;
    for (auto it = body.rbegin(); it != body.rend(); ++it) {
      Stmt& s = **it;
      bool keep = true;
      switch (s.kind) {
        case StmtKind::Return:
          count_uses_into(*s.value, live);
          break;
        case StmtKind::Assign:
          keep = live.count(s.target) > 0;
          if (keep) {
            live.erase(s.target);
            if (s.value) count_uses_into(*s.value, live);
          }
          break;
        case StmtKind::ElemAssign:
          keep = live.count(s.target) > 0;
          if (keep) {
            for (const ExprPtr& i : s.indices) count_uses_into(*i, live);
            count_uses_into(*s.value, live);
            live.insert(s.target);
          }
          break;
        case StmtKind::For:
        case StmtKind::If: {
          // Keep when any variable written inside is live afterwards.
          // An element store inside also reads the array it stores into,
          // so a kept block keeps every such array's definition alive.
          std::set<std::string> written;
          std::set<std::string> stored;
          std::function<void(const std::vector<StmtPtr>&)> scan =
              [&](const std::vector<StmtPtr>& b) {
                for (const StmtPtr& c : b) {
                  if (!c->target.empty()) written.insert(c->target);
                  if (c->kind == StmtKind::ElemAssign) stored.insert(c->target);
                  scan(c->body);
                  scan(c->else_body);
                }
              };
          scan(s.body);
          scan(s.else_body);
          keep = false;
          for (const std::string& wname : written) {
            if (live.count(wname)) keep = true;
          }
          if (keep) {
            visit_exprs(s, [&](Expr& x) {
              if (x.kind == ExprKind::Var) live.insert(x.name);
            });
            live.insert(stored.begin(), stored.end());
          }
          break;
        }
      }
      if (keep) {
        kept.push_back(std::move(*it));
      } else {
        ++stats.stmts_removed;
      }
    }
    std::reverse(kept.begin(), kept.end());
    body = std::move(kept);
  }

  // ---- modarray conversion --------------------------------------------------------

  std::optional<Shape> infer_expr_shape(const Expr& e,
                                        const std::map<std::string, Shape>& shapes) {
    switch (e.kind) {
      case ExprKind::IntLit:
      case ExprKind::FloatLit:
      case ExprKind::BoolLit:
        return Shape{};
      case ExprKind::Var: {
        auto it = shapes.find(e.name);
        if (it == shapes.end()) return std::nullopt;
        return it->second;
      }
      case ExprKind::ArrayLit: {
        if (e.args.empty()) return Shape{0};
        auto cell = infer_expr_shape(*e.args[0], shapes);
        if (!cell) return std::nullopt;
        return Shape{static_cast<std::int64_t>(e.args.size())}.concat(*cell);
      }
      case ExprKind::BinOp: {
        if (e.bin_op == BinOpKind::Concat) {
          auto a = infer_expr_shape(*e.args[0], shapes);
          auto b = infer_expr_shape(*e.args[1], shapes);
          if (!a || !b) return std::nullopt;
          auto len = [](const Shape& s) { return s.rank() == 0 ? 1 : s.elements(); };
          return Shape{len(*a) + len(*b)};
        }
        auto a = infer_expr_shape(*e.args[0], shapes);
        auto b = infer_expr_shape(*e.args[1], shapes);
        if (a && a->rank() == 0) return b;
        if (b && b->rank() == 0) return a;
        if (a) return a;
        return b;
      }
      case ExprKind::UnOp:
        return infer_expr_shape(*e.args[0], shapes);
      case ExprKind::Call: {
        if (e.name == "shape") {
          auto a = infer_expr_shape(*e.args[0], shapes);
          if (!a) return std::nullopt;
          return Shape{static_cast<std::int64_t>(a->rank())};
        }
        if (e.name == "dim" || e.name == "toi" || e.name == "tod" || e.name == "sum") {
          return Shape{};
        }
        if (e.name == "min" || e.name == "max" || e.name == "abs") {
          // Scalar broadcast semantics, like the binary operators.
          std::optional<Shape> out = Shape{};
          for (const ExprPtr& a : e.args) {
            auto sh = infer_expr_shape(*a, shapes);
            if (!sh) return std::nullopt;
            if (sh->rank() > 0) out = sh;
          }
          return out;
        }
        if (e.name == "MV") {
          auto m = infer_expr_shape(*e.args[0], shapes);
          if (!m || m->rank() != 2) return std::nullopt;
          return Shape{(*m)[0]};
        }
        if (e.name == "CAT") {
          auto a = infer_expr_shape(*e.args[0], shapes);
          auto b = infer_expr_shape(*e.args[1], shapes);
          if (!a || !b) return std::nullopt;
          auto len = [](const Shape& s) { return s.rank() == 0 ? 1 : s.elements(); };
          return Shape{len(*a) + len(*b)};
        }
        return std::nullopt;
      }
      case ExprKind::Select: {
        auto a = infer_expr_shape(*e.args[0], shapes);
        if (!a) return std::nullopt;
        std::optional<std::size_t> len;
        if (auto v = lit_index(*e.args[1])) {
          len = v->size();
        } else if (e.args[1]->kind == ExprKind::ArrayLit) {
          len = e.args[1]->args.size();
        } else if (auto is = infer_expr_shape(*e.args[1], shapes)) {
          len = is->rank() == 0 ? 1 : static_cast<std::size_t>(is->elements());
        }
        if (!len || *len > a->rank()) return std::nullopt;
        return a->drop(*len);
      }
      case ExprKind::With: {
        if (e.op.kind == WithOpKind::Fold) {
          return infer_expr_shape(*e.op.shape_or_target, shapes);
        }
        std::optional<Shape> frame;
        if (e.op.kind == WithOpKind::Genarray) {
          auto shp = literal_value(*e.op.shape_or_target);
          if (!shp || !shp->is_int()) return std::nullopt;
          frame = Shape(shp->as_index_vector());
        } else {
          auto t = infer_expr_shape(*e.op.shape_or_target, shapes);
          if (!t) return std::nullopt;
          return t;  // modarray preserves the target shape
        }
        std::optional<Shape> cell;
        if (e.op.default_value) cell = infer_expr_shape(*e.op.default_value, shapes);
        if (!cell && !e.generators.empty()) {
          const Generator& g = e.generators[0];
          std::map<std::string, Shape> inner = shapes;
          if (g.vector_var) {
            inner[g.vars[0]] = Shape{static_cast<std::int64_t>(frame->rank())};
          } else {
            for (const std::string& v : g.vars) inner[v] = Shape{};
          }
          for (const StmtPtr& s : g.body) {
            if (s->kind == StmtKind::Assign && s->value) {
              if (auto sh = infer_expr_shape(*s->value, inner)) {
                inner[s->target] = *sh;
              }
            }
          }
          cell = infer_expr_shape(*g.value, inner);
        }
        if (!cell) return std::nullopt;
        return frame->concat(*cell);
      }
    }
    return std::nullopt;
  }

  /// Expands a concrete generator into iv-space boxes (one per width
  /// offset combination; capped).
  static std::optional<std::vector<Box>> iv_boxes(const ConcreteGen& cg) {
    std::vector<Box> out{{}};
    for (std::size_t d = 0; d < cg.lb.size(); ++d) {
      std::vector<DimRegion> options;
      if (cg.step[d] == 1) {
        options.push_back(DimRegion{cg.lb[d], cg.ub[d], 0, 1});
      } else {
        for (std::int64_t wo = 0; wo < cg.width[d]; ++wo) {
          DimRegion r;
          r.lo = cg.lb[d] + wo;
          r.hi = cg.ub[d];
          r.m = cg.step[d];
          r.r = ((cg.lb[d] + wo) % cg.step[d] + cg.step[d]) % cg.step[d];
          options.push_back(r);
        }
      }
      std::vector<Box> next;
      for (const Box& b : out) {
        for (const DimRegion& o : options) {
          Box nb = b;
          nb.push_back(o);
          next.push_back(std::move(nb));
        }
      }
      if (next.size() > 64) return std::nullopt;
      out = std::move(next);
    }
    return out;
  }

  void convert_modarrays(std::vector<StmtPtr>& body,
                         const std::map<std::string, Shape>& param_shapes) {
    std::map<std::string, Shape> shapes = param_shapes;
    for (StmtPtr& s : body) {
      if (s->kind != StmtKind::Assign || !s->value) continue;
      Expr& e = *s->value;
      if (e.kind == ExprKind::With && e.op.kind == WithOpKind::Modarray) {
        auto target_shape = infer_expr_shape(*e.op.shape_or_target, shapes);
        if (target_shape) {
          std::size_t gen_rank = target_shape->rank();
          if (!e.generators.empty() && !e.generators[0].vector_var) {
            gen_rank = e.generators[0].vars.size();
          }
          const Shape frame = target_shape->take(gen_rank);
          // Collect iv-space boxes of all generators; require pairwise
          // disjointness and full coverage.
          bool ok = true;
          std::vector<Box> all;
          for (const Generator& g : e.generators) {
            auto cg = concrete_generator(g);
            if (!cg) {
              ok = false;
              break;
            }
            auto boxes = iv_boxes(*cg);
            if (!boxes) {
              ok = false;
              break;
            }
            for (Box& b : *boxes) all.push_back(std::move(b));
          }
          if (ok) {
            std::int64_t covered = 0;
            for (std::size_t i = 0; i < all.size() && ok; ++i) {
              // Clamp to the frame box.
              for (std::size_t d = 0; d < frame.rank(); ++d) {
                all[i][d].lo = std::max<std::int64_t>(all[i][d].lo, 0);
                all[i][d].hi = std::min(all[i][d].hi, frame[d]);
              }
              covered += affine::box_count(all[i]);
              for (std::size_t j = i + 1; j < all.size() && ok; ++j) {
                if (affine::box_intersect(all[i], all[j])) ok = false;
              }
            }
            if (ok && covered == frame.elements() && target_shape->rank() == frame.rank()) {
              e.op.kind = WithOpKind::Genarray;
              e.op.shape_or_target = make_index_lit(frame.dims());
              e.op.default_value = nullptr;
              ++stats.modarrays_converted;
            }
          }
        }
      }
      if (auto sh = infer_expr_shape(e, shapes)) shapes[s->target] = *sh;
    }
  }

  // ---- top-level cleanup -------------------------------------------------------

  /// Renames multiply-assigned top-level variables into single-assign
  /// versions and propagates `x = y` aliases, so that with-loop
  /// producers hidden behind the specialiser's alias chains become
  /// visible to the folder.
  void toplevel_cleanup(std::vector<StmtPtr>& body) {
    // Names that must not be touched: anything written inside loops,
    // conditionals or via element assignment, and anything that is a
    // generator variable or generator-body binding somewhere.
    std::map<std::string, int> assign_counts;
    std::set<std::string> excluded;
    for (StmtPtr& s : body) {
      if (s->kind == StmtKind::Assign) {
        ++assign_counts[s->target];
      } else if (s->kind == StmtKind::ElemAssign) {
        excluded.insert(s->target);
      } else if (s->kind == StmtKind::For || s->kind == StmtKind::If) {
        excluded.insert(s->target);
        std::function<void(const std::vector<StmtPtr>&)> scan =
            [&](const std::vector<StmtPtr>& b) {
              for (const StmtPtr& c : b) {
                if (!c->target.empty()) excluded.insert(c->target);
                scan(c->body);
                scan(c->else_body);
              }
            };
        scan(s->body);
        scan(s->else_body);
      }
      visit_exprs(*s, [&](Expr& x) {
        for (const Generator& g : x.generators) {
          for (const std::string& v : g.vars) excluded.insert(v);
          for (const StmtPtr& bs : g.body) {
            if (!bs->target.empty()) excluded.insert(bs->target);
          }
        }
      });
    }

    // Pass 1: SSA-version multiply-assigned names.
    std::map<std::string, std::string> current;
    auto rewrite_uses = [&](Stmt& s) {
      visit_exprs(s, [&](Expr& x) {
        if (x.kind != ExprKind::Var) return;
        auto it = current.find(x.name);
        if (it != current.end()) x.name = it->second;
      });
    };
    for (StmtPtr& s : body) {
      rewrite_uses(*s);
      if (s->kind == StmtKind::Assign && assign_counts[s->target] > 1 &&
          !excluded.count(s->target)) {
        const std::string nv = fresh_name(s->target);
        current[s->target] = nv;
        s->target = nv;
      }
    }

    // Pass 2: propagate single-assignment aliases `x = y` where neither
    // side is ever mutated (value semantics keep them equal forever).
    std::map<std::string, std::string> alias;
    for (StmtPtr& s : body) {
      visit_exprs(*s, [&](Expr& x) {
        if (x.kind != ExprKind::Var) return;
        auto it = alias.find(x.name);
        if (it != alias.end()) x.name = it->second;
      });
      if (s->kind == StmtKind::Assign && s->value && s->value->kind == ExprKind::Var &&
          !excluded.count(s->target) && !excluded.count(s->value->name)) {
        alias[s->target] = s->value->name;
      }
    }
  }

  // ---- drivers -------------------------------------------------------------------

  void simplify_all(std::vector<StmtPtr>& body) {
    for (StmtPtr& s : body) {
      visit_exprs(*s, [&](Expr& x) {
        if (x.kind != ExprKind::With) return;
        for (Generator& g : x.generators) simplify_generator(g);
      });
    }
    simplify_loop_bodies(body);
  }

  /// Applies the expression simplifier to for-loop bodies (innermost
  /// first). This is the loop-body strength reduction a conventional C
  /// compiler performs on the paper's generic output tiler: the
  /// MV(CAT(paving, fitting), [i,j,k]) of Figure 6 collapses to plain
  /// index arithmetic. The body is wrapped in a pseudo-generator whose
  /// value references every assigned name, so dead-code elimination
  /// cannot drop observable writes.
  void simplify_loop_bodies(std::vector<StmtPtr>& body) {
    for (StmtPtr& s : body) {
      if (s->kind != StmtKind::For && s->kind != StmtKind::If) continue;
      simplify_loop_bodies(s->body);
      simplify_loop_bodies(s->else_body);
      for (std::vector<StmtPtr>* blk : {&s->body, &s->else_body}) {
        if (blk->empty()) continue;
        Generator dummy;
        dummy.vector_var = false;
        dummy.body = std::move(*blk);
        std::set<std::string> assigned;
        std::function<void(const std::vector<StmtPtr>&)> names =
            [&](const std::vector<StmtPtr>& b) {
              for (const StmtPtr& c : b) {
                if (!c->target.empty()) assigned.insert(c->target);
                names(c->body);
                names(c->else_body);
              }
            };
        names(dummy.body);
        std::vector<ExprPtr> keep;
        for (const std::string& n : assigned) keep.push_back(make_var(n));
        dummy.value = make_array_lit(std::move(keep));
        simplify_generator(dummy);
        *blk = std::move(dummy.body);
      }
    }
  }

 private:
  int counter_ = 0;
  bool changed_ = false;
  std::set<std::string> ssa_names_;
  std::set<std::string> elem_chain_ok_;
  std::map<std::string, int> uses_;
  std::vector<StmtPtr> pending_;
  std::vector<StmtPtr> subst_hoist_;
};

}  // namespace

bool flatten_cell(Generator& g, const Shape& cell) {
  if (cell.rank() == 0) return true;
  Optimizer opt;
  std::vector<ExprPtr> elems;
  elems.reserve(static_cast<std::size_t>(cell.elements()));
  for_each_index(cell, [&](const Index& c) {
    elems.push_back(make_select(g.value->clone(), make_index_lit(c)));
  });
  g.value = make_array_lit(std::move(elems));
  opt.simplify_generator(g);
  if (g.value->kind != ExprKind::ArrayLit ||
      g.value->args.size() != static_cast<std::size_t>(cell.elements())) {
    return false;
  }
  return true;
}

std::map<std::string, Shape> infer_shapes(const std::vector<StmtPtr>& body,
                                          const std::map<std::string, Shape>& param_shapes) {
  Optimizer opt;
  std::map<std::string, Shape> shapes = param_shapes;
  std::function<void(const std::vector<StmtPtr>&)> walk = [&](const std::vector<StmtPtr>& b) {
    for (const StmtPtr& s : b) {
      if (s->kind == StmtKind::Assign && s->value) {
        if (auto sh = opt.infer_expr_shape(*s->value, shapes)) shapes[s->target] = *sh;
      } else if (s->kind == StmtKind::Assign && s->decl_type &&
                 s->decl_type->kind == TypeSpec::Dims::Described) {
        Index dims;
        bool ok = true;
        for (std::int64_t d : s->decl_type->dims) {
          if (d < 0) ok = false;
          dims.push_back(d);
        }
        if (ok) shapes[s->target] = Shape(dims);
      }
      walk(s->body);
      walk(s->else_body);
    }
  };
  walk(body);
  return shapes;
}

OptStats run_wlf(std::vector<StmtPtr>& body) {
  Optimizer opt;
  opt.toplevel_cleanup(body);
  opt.simplify_all(body);
  std::size_t next = 0;
  for (int guard = 0; guard < 4096; ++guard) {
    if (!opt.fold_step(body, next)) break;
  }
  return opt.stats;
}

OptStats run_mod_split(std::vector<StmtPtr>& body) {
  Optimizer opt;
  std::size_t next = 0;
  for (int guard = 0; guard < 4096; ++guard) {
    if (!opt.mod_split_step(body, next)) break;
  }
  return opt.stats;
}

OptStats convert_modarray(std::vector<StmtPtr>& body,
                          const std::map<std::string, Shape>& shapes) {
  Optimizer opt;
  opt.convert_modarrays(body, shapes);
  return opt.stats;
}

OptStats run_dce(std::vector<StmtPtr>& body) {
  Optimizer opt;
  opt.dce(body);
  return opt.stats;
}

void simplify_body(std::vector<StmtPtr>& body) {
  Optimizer opt;
  opt.simplify_all(body);
}

OptStats optimize(std::vector<StmtPtr>& body, const std::map<std::string, Shape>& param_shapes,
                  bool enable_wlf) {
  Optimizer opt;
  opt.toplevel_cleanup(body);
  opt.simplify_all(body);
  opt.convert_modarrays(body, param_shapes);
  if (enable_wlf) {
    std::size_t next = 0;
    for (int guard = 0; guard < 4096; ++guard) {
      if (!opt.fold_step(body, next)) break;
    }
    next = 0;
    for (int guard = 0; guard < 4096; ++guard) {
      if (!opt.mod_split_step(body, next)) break;
    }
  }
  opt.dce(body);
  return opt.stats;
}

}  // namespace saclo::sac
