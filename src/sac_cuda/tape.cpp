#include "sac_cuda/tape.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "sac/specialize.hpp"
#include "sac/wlf.hpp"

namespace saclo::sac_cuda {

using sac::BinOpKind;
using sac::Expr;
using sac::ExprKind;
using sac::Stmt;
using sac::StmtKind;
using sac::StmtPtr;

namespace {

/// True when the code in [begin, end) can raise: a checked load, or a
/// division or modulo by anything but a non-zero literal (in postfix
/// code the divisor is a literal exactly when a Push precedes the op;
/// DivImm and ModImm divide by one that is not 0 or ±1).
bool code_can_throw(const std::vector<TapeInstr>& code, std::size_t begin, std::size_t end) {
  for (std::size_t k = begin; k < end; ++k) {
    const TapeInstr& i = code[k];
    if (i.op == TapeOp::LoadArr) return true;
    if (i.op == TapeOp::Div || i.op == TapeOp::Mod) {
      const TapeInstr& divisor = code[k - 1];
      if (divisor.op != TapeOp::Push || divisor.imm == 0) return true;
    }
  }
  return false;
}

class TapeBuilder {
 public:
  TapeBuilder(const std::map<std::string, Index>& array_dims,
              const sac::affine::Lattice* lattice)
      : array_dims_(&array_dims) {
    if (lattice) affine_.emplace(*lattice);
  }

  std::optional<KernelTape> build(const std::vector<StmtPtr>& body,
                                  const std::vector<const Expr*>& results,
                                  const std::vector<std::string>& index_vars) {
    for (const std::string& iv : index_vars) {
      tape_.input_slots.push_back(slot(iv));
    }
    std::vector<CodeRange> bindings;
    for (const StmtPtr& s : body) {
      if (s->kind != StmtKind::Assign || !s->value) return std::nullopt;
      const std::size_t begin = tape_.code.size();
      // Inner fold with-loops (reductions nested inside a kernel body,
      // e.g. the dot product of a matmul cell) compile by full
      // unrolling over their — necessarily small — lattice.
      if (s->value->kind == ExprKind::With) {
        in_fold_ = true;
        const bool ok = compile_inner_fold(*s->value);
        in_fold_ = false;
        if (!ok) return std::nullopt;
        forget_fold_names(*s->value);
      } else if (!compile_expr(*s->value)) {
        // Vector-valued bindings must have been expanded away by the
        // simplifier; anything not scalar-compilable fails here.
        return std::nullopt;
      }
      tape_.code.push_back({TapeOp::StoreSlot, slot(s->target), 0, 0});
      bindings.push_back({begin, tape_.code.size()});
      if (affine_) affine_->bind_stmt(*s);
    }
    for (const Expr* r : results) {
      if (!compile_expr(*r)) return std::nullopt;
      const int rs = fresh_slot();
      tape_.result_slots.push_back(rs);
      tape_.code.push_back({TapeOp::StoreSlot, rs, 0, 0});
    }
    tape_.slot_count = next_slot_;
    if (affine_) drop_dead_bindings(bindings);
    tape_.measure_depth();
    return std::move(tape_);
  }

 private:
  /// The code of one top-level binding: [begin, end) of tape_.code.
  struct CodeRange {
    std::size_t begin;
    std::size_t end;
  };

  int slot(const std::string& name) {
    auto it = slots_.find(name);
    if (it != slots_.end()) return it->second;
    const int s = next_slot_++;
    slots_.emplace(name, s);
    return s;
  }
  int fresh_slot() { return next_slot_++; }

  /// Unrolls `with { gens } : fold(op, neutral)` into straight-line
  /// tape code: neutral on the stack, then one combine per lattice
  /// point. Returns false (-> host fallback) for non-fold operations,
  /// symbolic bounds, non-scalar cells, or lattices above the unroll
  /// cap.
  bool compile_inner_fold(const Expr& w) {
    if (w.op.kind != sac::WithOpKind::Fold) return false;
    TapeOp combine;
    if (w.op.fold_op == "+") {
      combine = TapeOp::Add;
    } else if (w.op.fold_op == "*") {
      combine = TapeOp::Mul;
    } else if (w.op.fold_op == "min") {
      combine = TapeOp::Min;
    } else if (w.op.fold_op == "max") {
      combine = TapeOp::Max;
    } else {
      return false;
    }
    if (!compile_expr(*w.op.shape_or_target)) return false;  // the neutral
    constexpr std::int64_t kUnrollCap = 1024;
    std::int64_t total = 0;
    for (const sac::Generator& g : w.generators) {
      auto cg = sac::concrete_generator(g);
      if (!cg) return false;
      total += cg->points();
      if (total > kUnrollCap) return false;
      // Lattice point enumeration.
      bool ok = true;
      Shape box;
      {
        Index dims;
        for (std::size_t d = 0; d < cg->lb.size(); ++d) {
          const std::int64_t span = cg->ub[d] - cg->lb[d];
          dims.push_back(span > 0 ? (span + cg->step[d] - 1) / cg->step[d] : 0);
        }
        box = Shape(dims);
      }
      for_each_index(box, [&](const Index& t) {
        if (!ok) return;
        Index iv(t.size());
        for (std::size_t d = 0; d < t.size(); ++d) iv[d] = cg->lb[d] + cg->step[d] * t[d];
        // Width > 1 lattices are not unrolled (concrete_generator
        // normalises width==step; anything else fails earlier).
        for (std::size_t d = 0; d < t.size(); ++d) {
          if (cg->width[d] != 1) ok = false;
        }
        if (!ok) return;
        // Bind the generator variables for this point.
        if (g.vector_var) {
          ok = false;  // vector vars are destructured by the simplifier
          return;
        }
        for (std::size_t d = 0; d < g.vars.size(); ++d) {
          tape_.code.push_back({TapeOp::Push, 0, 0, iv[d]});
          tape_.code.push_back({TapeOp::StoreSlot, slot(g.vars[d]), 0, 0});
        }
        for (const StmtPtr& bs : g.body) {
          if (bs->kind != StmtKind::Assign || !bs->value || !compile_expr(*bs->value)) {
            ok = false;
            return;
          }
          tape_.code.push_back({TapeOp::StoreSlot, slot(bs->target), 0, 0});
        }
        if (!compile_expr(*g.value)) {
          ok = false;
          return;
        }
        tape_.code.push_back({combine, 0, 0, 0});
      });
      if (!ok) return false;
    }
    return true;
  }

  /// The unrolled fold overwrote its generator variables and body
  /// bindings; the affine view of those names is stale.
  void forget_fold_names(const Expr& w) {
    if (!affine_) return;
    for (const sac::Generator& g : w.generators) {
      for (const std::string& v : g.vars) affine_->forget(v);
      for (const StmtPtr& bs : g.body) affine_->forget(bs->target);
    }
  }

  bool cannot_throw(const CodeRange& r) const {
    return !code_can_throw(tape_.code, r.begin, r.end);
  }

  /// Drops, to a fixpoint, every top-level binding whose stored slots
  /// no other code reads and whose code cannot throw — the index
  /// arithmetic that LoadLin made redundant. Then compacts the code and
  /// the LoadLin operands.
  void drop_dead_bindings(const std::vector<CodeRange>& bindings) {
    std::vector<TapeInstr>& code = tape_.code;
    std::vector<int> reads(static_cast<std::size_t>(next_slot_), 0);
    for (const TapeInstr& i : code) {
      if (i.op == TapeOp::LoadSlot) ++reads[static_cast<std::size_t>(i.a)];
    }
    std::vector<bool> dead(code.size(), false);
    auto reads_inside = [&](const CodeRange& r, int slot) {
      int n = 0;
      for (std::size_t k = r.begin; k < r.end; ++k) {
        if (code[k].op == TapeOp::LoadSlot && code[k].a == slot) ++n;
      }
      return n;
    };
    for (bool changed = true; changed;) {
      changed = false;
      for (auto r = bindings.rbegin(); r != bindings.rend(); ++r) {
        if (dead[r->begin] || !cannot_throw(*r)) continue;
        bool read_elsewhere = false;
        for (std::size_t k = r->begin; k < r->end && !read_elsewhere; ++k) {
          if (code[k].op != TapeOp::StoreSlot) continue;
          read_elsewhere =
              reads[static_cast<std::size_t>(code[k].a)] > reads_inside(*r, code[k].a);
        }
        if (read_elsewhere) continue;
        for (std::size_t k = r->begin; k < r->end; ++k) {
          if (code[k].op == TapeOp::LoadSlot) --reads[static_cast<std::size_t>(code[k].a)];
          dead[k] = true;
        }
        changed = true;
      }
    }
    std::vector<TapeInstr> kept;
    std::vector<sac::affine::Lin> lin_loads;
    for (std::size_t k = 0; k < code.size(); ++k) {
      if (dead[k]) continue;
      kept.push_back(code[k]);
      if (code[k].op == TapeOp::LoadLin) {
        lin_loads.push_back(std::move(tape_.lin_loads[static_cast<std::size_t>(code[k].b)]));
        kept.back().b = static_cast<std::int32_t>(lin_loads.size() - 1);
      }
    }
    code = std::move(kept);
    tape_.lin_loads = std::move(lin_loads);
  }

  /// The element offset of a full-rank selection whose every index
  /// component is affine on the lattice and stays inside its extent
  /// over the whole lattice box; nullopt when that is not proven.
  std::optional<sac::affine::Lin> proven_offset(const std::vector<const Expr*>& comps,
                                                const Index& dims) const {
    // Terms below 2^30 keep the range sums below 2^63.
    constexpr std::int64_t kTermBound = std::int64_t{1} << 30;
    auto small = [](std::int64_t v) { return v > -kTermBound && v < kTermBound; };
    const Index strides = Shape(dims).strides();
    sac::affine::Lin off;
    off.coeff.assign(affine_->lattice().rank(), 0);
    for (std::size_t d = 0; d < comps.size(); ++d) {
      const auto lin = affine_->eval_scalar(*comps[d]);
      if (!lin || !small(lin->c0) || !std::all_of(lin->coeff.begin(), lin->coeff.end(), small)) {
        return std::nullopt;
      }
      const auto [lo, hi] = affine_->range(*lin);
      if (lo < 0 || hi >= dims[d]) return std::nullopt;
      for (std::size_t r = 0; r < off.coeff.size(); ++r) off.coeff[r] += strides[d] * lin->coeff[r];
      off.c0 += strides[d] * lin->c0;
    }
    return off;
  }

  bool compile_expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit:
      case ExprKind::BoolLit:
        tape_.code.push_back({TapeOp::Push, 0, 0, e.int_val});
        return true;
      case ExprKind::FloatLit:
        return false;  // int-only kernels (the paper's programs are integral)
      case ExprKind::Var: {
        auto it = slots_.find(e.name);
        if (it == slots_.end()) return false;  // array var or unknown
        tape_.code.push_back({TapeOp::LoadSlot, it->second, 0, 0});
        return true;
      }
      case ExprKind::BinOp: {
        if (e.bin_op == BinOpKind::Concat) return false;
        if (!compile_expr(*e.args[0]) || !compile_expr(*e.args[1])) return false;
        TapeOp op;
        switch (e.bin_op) {
          case BinOpKind::Add: op = TapeOp::Add; break;
          case BinOpKind::Sub: op = TapeOp::Sub; break;
          case BinOpKind::Mul: op = TapeOp::Mul; break;
          case BinOpKind::Div: op = TapeOp::Div; break;
          case BinOpKind::Mod: op = TapeOp::Mod; break;
          case BinOpKind::Lt: op = TapeOp::Lt; break;
          case BinOpKind::Le: op = TapeOp::Le; break;
          case BinOpKind::Gt: op = TapeOp::Gt; break;
          case BinOpKind::Ge: op = TapeOp::Ge; break;
          case BinOpKind::Eq: op = TapeOp::Eq; break;
          case BinOpKind::Ne: op = TapeOp::Ne; break;
          case BinOpKind::And: op = TapeOp::And; break;
          case BinOpKind::Or: op = TapeOp::Or; break;
          default: return false;
        }
        if (affine_ && (op == TapeOp::Div || op == TapeOp::Mod) && fuse_literal_divisor(op)) {
          return true;
        }
        tape_.code.push_back({op, 0, 0, 0});
        return true;
      }
      case ExprKind::UnOp: {
        if (!compile_expr(*e.args[0])) return false;
        tape_.code.push_back({e.un_op == sac::UnOpKind::Neg ? TapeOp::Neg : TapeOp::Not, 0, 0, 0});
        return true;
      }
      case ExprKind::Call: {
        if (e.name == "min" || e.name == "max") {
          if (e.args.size() != 2) return false;
          if (!compile_expr(*e.args[0]) || !compile_expr(*e.args[1])) return false;
          tape_.code.push_back({e.name == "min" ? TapeOp::Min : TapeOp::Max, 0, 0, 0});
          return true;
        }
        if (e.name == "abs" && e.args.size() == 1) {
          if (!compile_expr(*e.args[0])) return false;
          tape_.code.push_back({TapeOp::Abs, 0, 0, 0});
          return true;
        }
        return false;
      }
      case ExprKind::Select: {
        // `arrayvar[[i0, i1, ...]]` (full-rank selection) or a
        // selection from a literal constant array (baked-in
        // coefficient tables -> immediate arrays).
        const Expr& arr = *e.args[0];
        const Expr& idx = *e.args[1];
        std::int32_t id;
        std::size_t rank;
        if (arr.kind == ExprKind::Var) {
          auto dims = array_dims_->find(arr.name);
          if (dims == array_dims_->end()) return false;
          id = array_id(arr.name);
          rank = dims->second.size();
        } else if (auto lit = sac::literal_value(arr); lit && lit->is_int()) {
          id = immediate_id(*lit);
          rank = lit->shape().rank();
        } else {
          return false;
        }
        std::vector<const Expr*> comps;
        if (idx.kind == ExprKind::ArrayLit) {
          for (const sac::ExprPtr& c : idx.args) comps.push_back(c.get());
        } else {
          comps.push_back(&idx);  // scalar index into a rank-1 array
        }
        if (comps.size() != rank) return false;
        if (affine_ && !in_fold_ && id >= 0) {
          if (auto off = proven_offset(comps, array_dims_->at(arr.name))) {
            const auto k = static_cast<std::int32_t>(tape_.lin_loads.size());
            tape_.lin_loads.push_back(std::move(*off));
            tape_.code.push_back({TapeOp::LoadLin, id, k, 0});
            return true;
          }
        }
        for (const Expr* c : comps) {
          if (!compile_expr(*c)) return false;
        }
        tape_.code.push_back({TapeOp::LoadArr, id, static_cast<std::int32_t>(comps.size()), 0});
        return true;
      }
      default:
        return false;
    }
  }

  /// Turns the `Push k` just emitted as the divisor of `op` into one
  /// DivImm/ModImm by k. The literals 0 and ±1 keep the plain op, so a
  /// division by zero still raises its error on its lane; INT64_MIN has
  /// no magnitude in range.
  bool fuse_literal_divisor(TapeOp op) {
    TapeInstr& divisor = tape_.code.back();
    const std::int64_t k = divisor.imm;
    if (divisor.op != TapeOp::Push || k == std::numeric_limits<std::int64_t>::min() ||
        (k > -2 && k < 2)) {
      return false;
    }
    divisor = {op == TapeOp::Div ? TapeOp::DivImm : TapeOp::ModImm, tape_.divisor_id(k), 0, k};
    return true;
  }

  std::int32_t immediate_id(const sac::Value& v) {
    TapeImmediate imm;
    imm.dims = v.shape().dims();
    imm.strides = v.shape().strides();
    imm.data.resize(static_cast<std::size_t>(v.ints().elements()));
    for (std::int64_t i = 0; i < v.ints().elements(); ++i) {
      imm.data[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(v.ints()[i]);
    }
    for (std::size_t k = 0; k < tape_.imm_arrays.size(); ++k) {
      if (tape_.imm_arrays[k].data == imm.data && tape_.imm_arrays[k].dims == imm.dims) {
        return -static_cast<std::int32_t>(k) - 1;
      }
    }
    tape_.imm_arrays.push_back(std::move(imm));
    return -static_cast<std::int32_t>(tape_.imm_arrays.size());
  }

  std::int32_t array_id(const std::string& name) {
    for (std::size_t i = 0; i < tape_.array_names.size(); ++i) {
      if (tape_.array_names[i] == name) return static_cast<std::int32_t>(i);
    }
    tape_.array_names.push_back(name);
    return static_cast<std::int32_t>(tape_.array_names.size() - 1);
  }

  const std::map<std::string, Index>* array_dims_;
  /// The generator's bindings so far, over its lattice; empty for an
  /// unspecialised tape.
  std::optional<sac::affine::AffineEval> affine_;
  bool in_fold_ = false;  ///< inside an unrolled fold: its variables are not lattice ones
  KernelTape tape_;
  std::map<std::string, int> slots_;
  int next_slot_ = 0;
};

}  // namespace

bool can_throw(const Tape& tape) { return code_can_throw(tape.code, 0, tape.code.size()); }

std::optional<KernelTape> compile_tape(const std::vector<StmtPtr>& body,
                                       const std::vector<const Expr*>& results,
                                       const std::vector<std::string>& index_vars,
                                       const std::map<std::string, Index>& array_dims,
                                       const sac::affine::Lattice* lattice) {
  TapeBuilder builder(array_dims, lattice);
  return builder.build(body, results, index_vars);
}

}  // namespace saclo::sac_cuda
