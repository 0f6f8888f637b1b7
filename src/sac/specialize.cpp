#include "sac/specialize.hpp"

#include <map>
#include <set>

#include "core/fmt.hpp"
#include "sac/builtins.hpp"
#include "sac/interp.hpp"

namespace saclo::sac {

ExprPtr literal_expr(const Value& v) {
  const Shape& s = v.shape();
  if (s.rank() == 0) {
    if (v.is_int()) return make_int(v.as_int());
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::FloatLit;
    e->float_val = v.as_double();
    return e;
  }
  std::vector<ExprPtr> rows;
  const std::int64_t n = s[0];
  rows.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    // Select row i (as a Value) and recurse.
    const Shape cell = s.drop(1);
    const std::int64_t cn = cell.elements();
    if (v.is_int()) {
      IntArray row(cell);
      for (std::int64_t j = 0; j < cn; ++j) row[j] = v.ints()[i * cn + j];
      rows.push_back(literal_expr(Value(std::move(row))));
    } else {
      FloatArray row(cell);
      for (std::int64_t j = 0; j < cn; ++j) row[j] = v.floats()[i * cn + j];
      rows.push_back(literal_expr(Value(std::move(row))));
    }
  }
  return make_array_lit(std::move(rows));
}

std::optional<Value> literal_value(const Expr& e) {
  switch (e.kind) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
      return Value::from_int(e.int_val);
    case ExprKind::FloatLit:
      return Value::from_double(e.float_val);
    case ExprKind::ArrayLit: {
      std::vector<Value> elems;
      elems.reserve(e.args.size());
      for (const ExprPtr& a : e.args) {
        auto v = literal_value(*a);
        if (!v) return std::nullopt;
        elems.push_back(std::move(*v));
      }
      if (elems.empty()) return Value(IntArray(Shape{0}));
      const Shape cell = elems[0].shape();
      const std::int64_t cn = cell.elements();
      const Shape full = Shape{static_cast<std::int64_t>(elems.size())}.concat(cell);
      if (elems[0].is_int()) {
        IntArray out(full);
        for (std::size_t i = 0; i < elems.size(); ++i) {
          if (!elems[i].is_int() || elems[i].shape() != cell) return std::nullopt;
          for (std::int64_t j = 0; j < cn; ++j) {
            out[static_cast<std::int64_t>(i) * cn + j] = elems[i].ints()[j];
          }
        }
        return Value(std::move(out));
      }
      FloatArray out(full);
      for (std::size_t i = 0; i < elems.size(); ++i) {
        if (!elems[i].is_float() || elems[i].shape() != cell) return std::nullopt;
        for (std::int64_t j = 0; j < cn; ++j) {
          out[static_cast<std::int64_t>(i) * cn + j] = elems[i].floats()[j];
        }
      }
      return Value(std::move(out));
    }
    default:
      return std::nullopt;
  }
}

namespace {

constexpr std::int64_t kMaxInlineConstElems = 256;

struct AVal {
  ElemType elem = ElemType::Int;
  std::optional<Shape> shape;
};

class Specializer {
 public:
  explicit Specializer(const Module& mod) : mod_(&mod) {}

  FunDef run(const std::string& fn, const std::vector<ArgSpec>& args) {
    const FunDef* def = mod_->find(fn);
    if (def == nullptr) throw SpecializeError(cat("unknown function '", fn, "'"));
    if (def->params.size() != args.size()) {
      throw SpecializeError(cat("function '", fn, "' expects ", def->params.size(),
                                " arguments, got ", args.size()));
    }
    FunDef out;
    out.name = def->name;
    out.return_type = def->return_type;
    out.params = def->params;

    push_scope(/*barrier=*/true);
    std::map<std::string, std::string> rename;  // identity at entry level
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& name = def->params[i].second;
      rename[name] = name;
      define(name, AVal{args[i].elem, args[i].shape});
      if (args[i].constant && args[i].constant->shape().elements() <= kMaxInlineConstElems) {
        constants_[name] = *args[i].constant;
      }
    }
    frames_.push_back(Frame{&rename, def->name});
    spec_block(def->body, out.body, /*inlined=*/false, nullptr);
    frames_.pop_back();
    pop_scope();
    return out;
  }

 private:
  struct Frame {
    std::map<std::string, std::string>* rename;
    std::string fn_name;
  };

  // --- scope helpers ------------------------------------------------------

  struct Scope {
    std::map<std::string, AVal> vars;
    bool barrier = false;
  };

  void push_scope(bool barrier) { scopes_.push_back(Scope{{}, barrier}); }
  void pop_scope() { scopes_.pop_back(); }

  AVal* find(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto f = it->vars.find(name);
      if (f != it->vars.end()) return &f->second;
    }
    return nullptr;
  }

  void define(const std::string& name, AVal v) {
    scopes_.back().vars.insert_or_assign(name, std::move(v));
  }

  /// Binds `name`: updates an existing binding above the innermost
  /// barrier, else defines locally (with-loop bodies and function
  /// frames do not leak assignments outward).
  void bind(const std::string& name, AVal v) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto f = it->vars.find(name);
      if (f != it->vars.end()) {
        f->second = std::move(v);
        return;
      }
      if (it->barrier) break;
    }
    define(name, std::move(v));
  }

  std::string fresh(const std::string& base) { return cat(base, "_i", counter_++); }

  std::string resolve(const std::string& src) {
    auto& rename = *frames_.back().rename;
    auto it = rename.find(src);
    if (it != rename.end()) return it->second;
    // Unrenamed name in an inlined frame: a local not yet defined —
    // allocate a fresh target name on first definition (see
    // define_target); for reads this is an error caught by `find`.
    return src;
  }

  std::string define_target(const std::string& src) {
    auto& rename = *frames_.back().rename;
    auto it = rename.find(src);
    if (it != rename.end()) return it->second;
    const bool entry = frames_.size() == 1;
    std::string out = entry ? src : fresh(src);
    rename.emplace(src, out);
    return out;
  }

  // --- constant handling ----------------------------------------------------

  std::optional<Value> const_of(const Expr& e) {
    if (e.kind == ExprKind::Var) {
      auto it = constants_.find(e.name);
      if (it != constants_.end()) return it->second;
      return std::nullopt;
    }
    return literal_value(e);
  }

  ExprPtr constant_to_expr(Value v, AVal* info) {
    if (info != nullptr) {
      info->elem = v.is_int() ? ElemType::Int : ElemType::Float;
      info->shape = v.shape();
    }
    return literal_expr(v);
  }

  // --- expressions -------------------------------------------------------------

  ExprPtr spec_expr(const Expr& e, std::vector<StmtPtr>& out, AVal* info) {
    AVal dummy;
    AVal& inf = info != nullptr ? *info : dummy;
    inf = AVal{};
    switch (e.kind) {
      case ExprKind::IntLit:
      case ExprKind::BoolLit:
        inf = AVal{ElemType::Int, Shape{}};
        return e.clone();
      case ExprKind::FloatLit:
        inf = AVal{ElemType::Float, Shape{}};
        return e.clone();
      case ExprKind::Var: {
        const std::string name = resolve(e.name);
        AVal* v = find(name);
        if (v == nullptr) {
          throw SpecializeError(cat("unknown variable '", e.name, "' at line ", e.line,
                                    " while specialising ", frames_.back().fn_name));
        }
        inf = *v;
        auto c = constants_.find(name);
        if (c != constants_.end()) return constant_to_expr(c->second, &inf);
        return make_var(name);
      }
      case ExprKind::ArrayLit: {
        std::vector<ExprPtr> elems;
        elems.reserve(e.args.size());
        std::optional<Shape> cell;
        ElemType elem = ElemType::Int;
        bool shapes_known = true;
        for (const ExprPtr& a : e.args) {
          AVal ai;
          elems.push_back(spec_expr(*a, out, &ai));
          elem = ai.elem;
          if (!ai.shape) {
            shapes_known = false;
          } else if (!cell) {
            cell = ai.shape;
          }
        }
        inf.elem = elem;
        if (shapes_known && cell) {
          inf.shape = Shape{static_cast<std::int64_t>(elems.size())}.concat(*cell);
        } else if (e.args.empty()) {
          inf.shape = Shape{0};
        }
        return make_array_lit(std::move(elems));
      }
      case ExprKind::BinOp: {
        AVal ai, bi;
        ExprPtr a = spec_expr(*e.args[0], out, &ai);
        ExprPtr b = spec_expr(*e.args[1], out, &bi);
        ExprPtr folded = try_fold_binop(e, a, b, &inf);
        if (folded) return folded;
        inf.elem = e.bin_op == BinOpKind::Concat ? ai.elem : ai.elem;
        switch (e.bin_op) {
          case BinOpKind::Concat:
            if (ai.shape && bi.shape) {
              auto len = [](const Shape& s) { return s.rank() == 0 ? 1 : s.elements(); };
              inf.shape = Shape{len(*ai.shape) + len(*bi.shape)};
            }
            break;
          default:
            if (ai.shape && ai.shape->rank() == 0) {
              inf.shape = bi.shape;
            } else if (bi.shape && bi.shape->rank() == 0) {
              inf.shape = ai.shape;
            } else if (ai.shape) {
              inf.shape = ai.shape;
            } else {
              inf.shape = bi.shape;
            }
            break;
        }
        ExprPtr r = make_bin(e.bin_op, std::move(a), std::move(b));
        r->line = e.line;
        return r;
      }
      case ExprKind::UnOp: {
        AVal ai;
        ExprPtr a = spec_expr(*e.args[0], out, &ai);
        if (auto v = literal_value(*a)) {
          auto r = e.clone();
          r->args[0] = std::move(a);
          Interp interp(*mod_);
          return constant_to_expr(interp.eval_closed(*r), &inf);
        }
        inf = ai;
        auto r = std::make_unique<Expr>();
        r->kind = ExprKind::UnOp;
        r->un_op = e.un_op;
        r->line = e.line;
        r->args.push_back(std::move(a));
        return r;
      }
      case ExprKind::Call:
        return spec_call(e, out, inf);
      case ExprKind::Select: {
        AVal ai, ii;
        ExprPtr arr = spec_expr(*e.args[0], out, &ai);
        ExprPtr idx = spec_expr(*e.args[1], out, &ii);
        // Fold constant selections.
        auto av = literal_value(*arr);
        auto iv = literal_value(*idx);
        if (av && iv) {
          auto r = make_select(std::move(arr), std::move(idx));
          Interp interp(*mod_);
          return constant_to_expr(interp.eval_closed(*r), &inf);
        }
        inf.elem = ai.elem;
        std::optional<std::size_t> idx_len;
        if (iv) {
          idx_len = iv->shape().rank() == 0 ? 1 : static_cast<std::size_t>(iv->shape().elements());
        } else if (ii.shape) {
          idx_len = ii.shape->rank() == 0
                        ? 1
                        : static_cast<std::size_t>(ii.shape->elements());
        }
        if (ai.shape && idx_len && *idx_len <= ai.shape->rank()) {
          inf.shape = ai.shape->drop(*idx_len);
        }
        ExprPtr r = make_select(std::move(arr), std::move(idx));
        r->line = e.line;
        return r;
      }
      case ExprKind::With:
        return spec_with(e, out, inf);
    }
    throw SpecializeError("unreachable expression kind");
  }

  ExprPtr try_fold_binop(const Expr& e, ExprPtr& a, ExprPtr& b, AVal* inf) {
    auto av = literal_value(*a);
    auto bv = literal_value(*b);
    if (!av || !bv) return nullptr;
    auto r = std::make_unique<Expr>();
    r->kind = ExprKind::BinOp;
    r->bin_op = e.bin_op;
    r->args.push_back(a->clone());
    r->args.push_back(b->clone());
    Interp interp(*mod_);
    return constant_to_expr(interp.eval_closed(*r), inf);
  }

  ExprPtr spec_call(const Expr& e, std::vector<StmtPtr>& out, AVal& inf) {
    std::vector<ExprPtr> args;
    std::vector<AVal> infos(e.args.size());
    args.reserve(e.args.size());
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      args.push_back(spec_expr(*e.args[i], out, &infos[i]));
    }
    if (is_builtin(e.name)) {
      // shape()/dim() fold from static shape knowledge even when the
      // argument itself is not constant — the key enabler for concrete
      // generator bounds.
      if (e.name == "shape" && infos[0].shape) {
        IntArray s(Shape{static_cast<std::int64_t>(infos[0].shape->rank())});
        for (std::size_t d = 0; d < infos[0].shape->rank(); ++d) {
          s[static_cast<std::int64_t>(d)] = (*infos[0].shape)[d];
        }
        return constant_to_expr(Value(std::move(s)), &inf);
      }
      if (e.name == "dim" && infos[0].shape) {
        return constant_to_expr(Value::from_int(static_cast<std::int64_t>(infos[0].shape->rank())),
                                &inf);
      }
      bool all_const = true;
      std::vector<Value> vals;
      for (const ExprPtr& a : args) {
        auto v = literal_value(*a);
        if (!v) {
          all_const = false;
          break;
        }
        vals.push_back(std::move(*v));
      }
      if (all_const) {
        return constant_to_expr(eval_builtin(e.name, vals), &inf);
      }
      auto r = std::make_unique<Expr>();
      r->kind = ExprKind::Call;
      r->name = e.name;
      r->line = e.line;
      r->args = std::move(args);
      inf.elem = e.name == "tod" ? ElemType::Float : ElemType::Int;
      if (e.name == "MV" && infos[0].shape && infos[0].shape->rank() == 2) {
        inf.shape = Shape{(*infos[0].shape)[0]};
      }
      if (e.name == "CAT" && infos[0].shape && infos[1].shape) {
        auto len = [](const Shape& s) { return s.rank() == 0 ? 1 : s.elements(); };
        inf.shape = Shape{len(*infos[0].shape) + len(*infos[1].shape)};
      }
      return r;
    }
    return inline_call(e, std::move(args), infos, out, inf);
  }

  ExprPtr inline_call(const Expr& e, std::vector<ExprPtr> args, const std::vector<AVal>& infos,
                      std::vector<StmtPtr>& out, AVal& inf) {
    const FunDef* callee = mod_->find(e.name);
    if (callee == nullptr) {
      throw SpecializeError(cat("call to unknown function '", e.name, "' at line ", e.line));
    }
    for (const Frame& f : frames_) {
      if (f.fn_name == e.name) {
        throw SpecializeError(cat("cannot specialise recursive function '", e.name, "'"));
      }
    }
    if (callee->params.size() != args.size()) {
      throw SpecializeError(cat("function '", e.name, "' expects ", callee->params.size(),
                                " arguments, got ", args.size(), " at line ", e.line));
    }
    const bool from_entry = frames_.size() == 1;
    const std::size_t first = out.size();
    std::map<std::string, std::string> rename;
    push_scope(/*barrier=*/true);
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& pname = callee->params[i].second;
      if (args[i]->kind == ExprKind::Var) {
        rename[pname] = args[i]->name;
        // Parameter aliases an existing binding; AVal already in env
        // but may be hidden behind the barrier — re-define locally.
        define(args[i]->name, infos[i]);
        if (auto c = constants_.find(args[i]->name); c != constants_.end()) {
          // keep existing constant mapping
        }
      } else if (auto v = literal_value(*args[i]);
                 v && v->shape().elements() <= kMaxInlineConstElems) {
        const std::string n = fresh(pname);
        rename[pname] = n;
        define(n, infos[i]);
        constants_[n] = *v;
      } else {
        const std::string n = fresh(pname);
        rename[pname] = n;
        define(n, infos[i]);
        auto s = std::make_unique<Stmt>();
        s->kind = StmtKind::Assign;
        s->target = n;
        s->value = std::move(args[i]);
        out.push_back(std::move(s));
      }
    }
    frames_.push_back(Frame{&rename, callee->name});
    ExprPtr result;
    spec_block(callee->body, out, /*inlined=*/true, &result);
    frames_.pop_back();
    if (!result) {
      throw SpecializeError(cat("function '", e.name,
                                "' has no top-level return; cannot inline at line ", e.line));
    }
    AVal ri;
    // Re-derive info for the inlined result expression.
    std::vector<StmtPtr> scratch;
    ExprPtr rechecked = spec_expr(*result, scratch, &ri);
    for (auto& s : scratch) out.push_back(std::move(s));
    if (from_entry) {
      for (std::size_t i = first; i < out.size(); ++i) out[i]->origin = callee->name;
    }
    pop_scope();
    inf = ri;
    return rechecked;
  }

  ExprPtr spec_with(const Expr& e, std::vector<StmtPtr>& out, AVal& inf) {
    auto r = std::make_unique<Expr>();
    r->kind = ExprKind::With;
    r->line = e.line;
    r->op.kind = e.op.kind;

    AVal op_info;
    r->op.shape_or_target = spec_expr(*e.op.shape_or_target, out, &op_info);

    r->op.fold_op = e.op.fold_op;
    std::optional<Shape> frame;
    std::optional<Shape> cell;
    ElemType elem = op_info.elem;
    if (e.op.kind == WithOpKind::Fold) {
      // fold(op, neutral): the result is a scalar of the neutral's
      // element type. Generators carry their own explicit bounds; the
      // frame (for index-variable rank) comes from the first
      // generator's bound when literal.
      cell = Shape{};
      elem = op_info.elem;
      if (!e.generators.empty()) {
        if (!e.generators[0].vector_var) {
          frame = std::nullopt;  // rank comes from the pattern below
        }
      }
    } else if (e.op.kind == WithOpKind::Genarray) {
      if (auto shp = literal_value(*r->op.shape_or_target)) {
        frame = Shape(shp->as_index_vector());
      }
      if (e.op.default_value) {
        AVal di;
        r->op.default_value = spec_expr(*e.op.default_value, out, &di);
        elem = di.elem;
        if (di.shape) cell = di.shape;
      }
    } else {
      elem = op_info.elem;
      if (op_info.shape) {
        std::size_t gen_rank = op_info.shape->rank();
        if (!e.generators.empty() && !e.generators[0].vector_var) {
          gen_rank = e.generators[0].vars.size();
        }
        frame = op_info.shape->take(gen_rank);
        cell = op_info.shape->drop(gen_rank);
      }
    }

    for (const Generator& g : e.generators) {
      Generator ng;
      ng.vars = g.vars;
      ng.vector_var = g.vector_var;
      // Destructured patterns fix the generator rank even when the
      // frame is unknown; fold generators carry literal bounds.
      std::optional<std::size_t> rank;
      if (frame) {
        rank = frame->rank();
      } else if (!g.vector_var) {
        rank = g.vars.size();
      } else if (g.upper) {
        std::vector<StmtPtr> scratch;
        AVal bi;
        ExprPtr probe = spec_expr(*g.upper, scratch, &bi);
        if (auto v = literal_value(*probe); v && v->is_int() && v->shape().rank() <= 1) {
          rank = v->shape().rank() == 0 ? 1 : static_cast<std::size_t>(v->shape().elements());
        }
      }

      auto spec_bound = [&](const ExprPtr& bound) -> ExprPtr {
        if (!bound) return nullptr;
        AVal bi;
        return spec_expr(*bound, out, &bi);
      };
      ng.lower = spec_bound(g.lower);
      ng.lower_inclusive = g.lower_inclusive;
      ng.upper = spec_bound(g.upper);
      ng.upper_inclusive = g.upper_inclusive;
      ng.step = spec_bound(g.step);
      ng.width = spec_bound(g.width);

      // Resolve `.` bounds and normalise to [lb, ub) when concrete.
      if (rank) {
        if (!ng.lower) {
          ng.lower = make_index_lit(Index(*rank, 0));
          ng.lower_inclusive = true;
        }
        if (!ng.upper && frame) {
          ng.upper = make_index_lit(frame->dims());
          ng.upper_inclusive = false;
        }
        auto normalize = [&](ExprPtr& bound, bool& inclusive, bool is_lower, bool want_incl) {
          if (!bound) return;
          auto v = literal_value(*bound);
          if (!v) return;
          Index vec = v->shape().rank() == 0 ? Index(*rank, v->as_int()) : v->as_index_vector();
          if (vec.size() != *rank) {
            throw SpecializeError(cat("generator bound ", bracketed(vec), " has rank ",
                                      vec.size(), ", expected ", *rank, " at line ", e.line));
          }
          if (inclusive != want_incl) {
            const std::int64_t delta = is_lower == want_incl ? -1 : 1;
            // lower: exclusive->inclusive adds 1; upper: inclusive->exclusive adds 1
            for (auto& x : vec) x += (is_lower ? (want_incl ? 1 : -1) : (want_incl ? -1 : 1));
            (void)delta;
            inclusive = want_incl;
          }
          bound = make_index_lit(vec);
        };
        normalize(ng.lower, ng.lower_inclusive, /*is_lower=*/true, /*want_incl=*/true);
        normalize(ng.upper, ng.upper_inclusive, /*is_lower=*/false, /*want_incl=*/false);
      }

      // Specialise the generator body and value in a fresh barrier
      // scope with the index variables bound.
      push_scope(/*barrier=*/true);
      if (g.vector_var) {
        AVal iv;
        iv.elem = ElemType::Int;
        if (rank) iv.shape = Shape{static_cast<std::int64_t>(*rank)};
        const std::string n = define_target(g.vars[0]);
        ng.vars[0] = n;
        define(n, iv);
      } else {
        for (std::size_t i = 0; i < g.vars.size(); ++i) {
          const std::string n = define_target(g.vars[i]);
          ng.vars[i] = n;
          define(n, AVal{ElemType::Int, Shape{}});
        }
      }
      spec_block(g.body, ng.body, /*inlined=*/false, nullptr);
      AVal vi;
      ng.value = spec_expr(*g.value, ng.body, &vi);
      pop_scope();
      if (!cell && vi.shape) {
        cell = vi.shape;
        if (e.op.kind == WithOpKind::Genarray && !e.op.default_value) elem = vi.elem;
      }
      r->generators.push_back(std::move(ng));
    }

    inf.elem = elem;
    if (e.op.kind == WithOpKind::Fold) {
      inf.shape = Shape{};
    } else if (frame && cell) {
      inf.shape = frame->concat(*cell);
    }
    return r;
  }

  // --- statements ------------------------------------------------------------

  void collect_assigned(const std::vector<StmtPtr>& block, std::set<std::string>& names) {
    for (const StmtPtr& s : block) {
      if (s->kind == StmtKind::Assign || s->kind == StmtKind::ElemAssign) {
        names.insert(s->target);
      }
      if (s->kind == StmtKind::For) names.insert(s->target);
      collect_assigned(s->body, names);
      collect_assigned(s->else_body, names);
    }
  }

  void spec_block(const std::vector<StmtPtr>& block, std::vector<StmtPtr>& out, bool inlined,
                  ExprPtr* inline_result) {
    for (const StmtPtr& s : block) {
      if (s->kind == StmtKind::Return) {
        AVal ri;
        ExprPtr v = spec_expr(*s->value, out, &ri);
        if (inlined) {
          if (inline_result != nullptr) *inline_result = std::move(v);
          return;
        }
        auto ns = std::make_unique<Stmt>();
        ns->kind = StmtKind::Return;
        ns->line = s->line;
        ns->value = std::move(v);
        out.push_back(std::move(ns));
        return;
      }
      spec_stmt(*s, out);
    }
  }

  void spec_stmt(const Stmt& s, std::vector<StmtPtr>& out) {
    switch (s.kind) {
      case StmtKind::Assign: {
        auto ns = std::make_unique<Stmt>();
        ns->kind = StmtKind::Assign;
        ns->line = s.line;
        AVal vi;
        if (s.value) {
          ns->value = spec_expr(*s.value, out, &vi);
        } else if (s.decl_type && s.decl_type->kind == TypeSpec::Dims::Described) {
          Index dims;
          for (std::int64_t d : s.decl_type->dims) {
            if (d < 0) {
              throw SpecializeError(cat("declaration of '", s.target,
                                        "' needs concrete extents at line ", s.line));
            }
            dims.push_back(d);
          }
          vi = AVal{s.decl_type->elem, Shape(dims)};
          ns->decl_type = s.decl_type;
        } else {
          throw SpecializeError(cat("declaration of '", s.target,
                                    "' without initialiser or shape at line ", s.line));
        }
        const std::string t = define_target(s.target);
        ns->target = t;
        bind(t, vi);
        if (ns->value) {
          if (auto v = literal_value(*ns->value);
              v && v->shape().elements() <= kMaxInlineConstElems) {
            constants_[t] = *v;
          } else {
            constants_.erase(t);
          }
        } else {
          constants_.erase(t);
        }
        out.push_back(std::move(ns));
        return;
      }
      case StmtKind::ElemAssign: {
        const std::string t = resolve(s.target);
        if (find(t) == nullptr) {
          throw SpecializeError(cat("element assignment to unknown '", s.target, "' at line ",
                                    s.line));
        }
        constants_.erase(t);
        auto ns = std::make_unique<Stmt>();
        ns->kind = StmtKind::ElemAssign;
        ns->line = s.line;
        ns->target = t;
        for (const ExprPtr& i : s.indices) {
          AVal ii;
          ns->indices.push_back(spec_expr(*i, out, &ii));
        }
        AVal vi;
        ns->value = spec_expr(*s.value, out, &vi);
        out.push_back(std::move(ns));
        return;
      }
      case StmtKind::For: {
        auto ns = std::make_unique<Stmt>();
        ns->kind = StmtKind::For;
        ns->line = s.line;
        AVal ii;
        ns->for_init = spec_expr(*s.for_init, out, &ii);
        const std::string lv = define_target(s.target);
        ns->target = lv;
        bind(lv, AVal{ElemType::Int, Shape{}});
        constants_.erase(lv);
        // Everything assigned in the body loses constness before we
        // specialise condition/step/body (they see the loop-carried
        // state).
        std::set<std::string> assigned;
        collect_assigned(s.body, assigned);
        for (const std::string& a : assigned) {
          constants_.erase(resolve(a));
        }
        AVal ci, si;
        ns->for_cond = spec_expr(*s.for_cond, out, &ci);
        ns->for_step = spec_expr(*s.for_step, out, &si);
        spec_block(s.body, ns->body, false, nullptr);
        out.push_back(std::move(ns));
        return;
      }
      case StmtKind::If: {
        AVal ci;
        ExprPtr cond = spec_expr(*s.value, out, &ci);
        if (auto v = literal_value(*cond)) {
          const auto& branch = v->as_bool() ? s.body : s.else_body;
          spec_block(branch, out, false, nullptr);
          return;
        }
        std::set<std::string> assigned;
        collect_assigned(s.body, assigned);
        collect_assigned(s.else_body, assigned);
        for (const std::string& a : assigned) constants_.erase(resolve(a));
        auto ns = std::make_unique<Stmt>();
        ns->kind = StmtKind::If;
        ns->line = s.line;
        ns->value = std::move(cond);
        spec_block(s.body, ns->body, false, nullptr);
        spec_block(s.else_body, ns->else_body, false, nullptr);
        out.push_back(std::move(ns));
        return;
      }
      case StmtKind::Return:
        throw SpecializeError("return handled in spec_block");
    }
  }

  const Module* mod_;
  std::vector<Scope> scopes_;
  std::vector<Frame> frames_;
  std::map<std::string, Value> constants_;  // by emitted name
  int counter_ = 0;
};

}  // namespace

FunDef specialize(const Module& mod, const std::string& fn, const std::vector<ArgSpec>& args) {
  Specializer s(mod);
  return s.run(fn, args);
}

}  // namespace saclo::sac
