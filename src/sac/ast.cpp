#include "sac/ast.hpp"

#include "core/fmt.hpp"

namespace saclo::sac {

std::string to_string(ElemType t) {
  switch (t) {
    case ElemType::Int: return "int";
    case ElemType::Float: return "float";
    case ElemType::Bool: return "bool";
  }
  return "?";
}

std::string to_string(BinOpKind op) {
  switch (op) {
    case BinOpKind::Add: return "+";
    case BinOpKind::Sub: return "-";
    case BinOpKind::Mul: return "*";
    case BinOpKind::Div: return "/";
    case BinOpKind::Mod: return "%";
    case BinOpKind::Concat: return "++";
    case BinOpKind::Lt: return "<";
    case BinOpKind::Le: return "<=";
    case BinOpKind::Gt: return ">";
    case BinOpKind::Ge: return ">=";
    case BinOpKind::Eq: return "==";
    case BinOpKind::Ne: return "!=";
    case BinOpKind::And: return "&&";
    case BinOpKind::Or: return "||";
  }
  return "?";
}

std::string TypeSpec::to_string() const {
  std::string s = sac::to_string(elem);
  switch (kind) {
    case Dims::Scalar:
      return s;
    case Dims::AnyRank:
      return s + "[*]";
    case Dims::Described: {
      std::vector<std::string> parts;
      parts.reserve(dims.size());
      for (std::int64_t d : dims) parts.push_back(d < 0 ? "." : std::to_string(d));
      return s + "[" + join(parts, ",") + "]";
    }
  }
  return s;
}

namespace {

ExprPtr clone_opt(const ExprPtr& e) { return e ? e->clone() : nullptr; }

}  // namespace

Generator clone_generator(const Generator& g) {
  Generator out;
  out.lower = clone_opt(g.lower);
  out.lower_inclusive = g.lower_inclusive;
  out.upper = clone_opt(g.upper);
  out.upper_inclusive = g.upper_inclusive;
  out.vars = g.vars;
  out.vector_var = g.vector_var;
  out.step = clone_opt(g.step);
  out.width = clone_opt(g.width);
  out.body = clone_block(g.body);
  out.value = clone_opt(g.value);
  return out;
}

ExprPtr Expr::clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->line = line;
  out->int_val = int_val;
  out->float_val = float_val;
  out->name = name;
  out->bin_op = bin_op;
  out->un_op = un_op;
  out->args.reserve(args.size());
  for (const ExprPtr& a : args) out->args.push_back(clone_opt(a));
  out->generators.reserve(generators.size());
  for (const Generator& g : generators) out->generators.push_back(clone_generator(g));
  out->op.kind = op.kind;
  out->op.shape_or_target = clone_opt(op.shape_or_target);
  out->op.default_value = clone_opt(op.default_value);
  out->op.fold_op = op.fold_op;
  return out;
}

StmtPtr Stmt::clone() const {
  auto out = std::make_unique<Stmt>();
  out->kind = kind;
  out->line = line;
  out->target = target;
  out->decl_type = decl_type;
  out->indices.reserve(indices.size());
  for (const ExprPtr& i : indices) out->indices.push_back(clone_opt(i));
  out->value = clone_opt(value);
  out->for_init = clone_opt(for_init);
  out->for_cond = clone_opt(for_cond);
  out->for_step = clone_opt(for_step);
  out->body = clone_block(body);
  out->else_body = clone_block(else_body);
  out->origin = origin;
  return out;
}

std::vector<StmtPtr> clone_block(const std::vector<StmtPtr>& block) {
  std::vector<StmtPtr> out;
  out.reserve(block.size());
  for (const StmtPtr& s : block) out.push_back(s->clone());
  return out;
}

const FunDef* Module::find(const std::string& name) const {
  for (const FunDef& f : functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

ExprPtr make_int(std::int64_t v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::IntLit;
  e->int_val = v;
  return e;
}

ExprPtr make_var(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Var;
  e->name = std::move(name);
  return e;
}

ExprPtr make_array_lit(std::vector<ExprPtr> elems) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::ArrayLit;
  e->args = std::move(elems);
  return e;
}

ExprPtr make_index_lit(const Index& idx) {
  std::vector<ExprPtr> elems;
  elems.reserve(idx.size());
  for (std::int64_t v : idx) elems.push_back(make_int(v));
  return make_array_lit(std::move(elems));
}

ExprPtr make_bin(BinOpKind op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::BinOp;
  e->bin_op = op;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr make_select(ExprPtr array, ExprPtr index) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Select;
  e->args.push_back(std::move(array));
  e->args.push_back(std::move(index));
  return e;
}

}  // namespace saclo::sac
