#include "sac/printer.hpp"

#include "core/fmt.hpp"

namespace saclo::sac {

namespace {

std::string ind(int n) { return std::string(static_cast<std::size_t>(n) * 2, ' '); }

int precedence(BinOpKind op) {
  switch (op) {
    case BinOpKind::Or: return 1;
    case BinOpKind::And: return 2;
    case BinOpKind::Eq:
    case BinOpKind::Ne: return 3;
    case BinOpKind::Lt:
    case BinOpKind::Le:
    case BinOpKind::Gt:
    case BinOpKind::Ge: return 4;
    case BinOpKind::Concat: return 5;
    case BinOpKind::Add:
    case BinOpKind::Sub: return 6;
    case BinOpKind::Mul:
    case BinOpKind::Div:
    case BinOpKind::Mod: return 7;
  }
  return 0;
}

std::string print_expr(const Expr& e, int indent, int parent_prec);

std::string print_generator(const Generator& g, int indent) {
  std::string s = ind(indent) + "(";
  s += g.lower ? print_expr(*g.lower, indent, 0) : ".";
  s += g.lower_inclusive ? " <= " : " < ";
  if (g.vector_var) {
    s += g.vars[0];
  } else {
    s += cat("[", join(g.vars, ","), "]");
  }
  s += g.upper_inclusive ? " <= " : " < ";
  s += g.upper ? print_expr(*g.upper, indent, 0) : ".";
  if (g.step) s += " step " + print_expr(*g.step, indent, 0);
  if (g.width) s += " width " + print_expr(*g.width, indent, 0);
  s += ")";
  if (!g.body.empty()) {
    s += " {\n";
    s += print(g.body, indent + 1);
    s += ind(indent) + "}";
  }
  s += " : " + print_expr(*g.value, indent, 0) + ";\n";
  return s;
}

std::string print_expr(const Expr& e, int indent, int parent_prec) {
  switch (e.kind) {
    case ExprKind::IntLit:
      return std::to_string(e.int_val);
    case ExprKind::FloatLit:
      return fixed(e.float_val, 6);
    case ExprKind::BoolLit:
      return e.int_val ? "true" : "false";
    case ExprKind::Var:
      return e.name;
    case ExprKind::ArrayLit: {
      std::vector<std::string> parts;
      parts.reserve(e.args.size());
      for (const ExprPtr& a : e.args) parts.push_back(print_expr(*a, indent, 0));
      return cat("[", join(parts, ","), "]");
    }
    case ExprKind::BinOp: {
      const int prec = precedence(e.bin_op);
      std::string s = cat(print_expr(*e.args[0], indent, prec), " ", to_string(e.bin_op), " ",
                          print_expr(*e.args[1], indent, prec + 1));
      return prec < parent_prec ? cat("(", s, ")") : s;
    }
    case ExprKind::UnOp: {
      return cat(e.un_op == UnOpKind::Neg ? "-" : "!", print_expr(*e.args[0], indent, 8));
    }
    case ExprKind::Call: {
      std::vector<std::string> parts;
      parts.reserve(e.args.size());
      for (const ExprPtr& a : e.args) parts.push_back(print_expr(*a, indent, 0));
      return e.name + "(" + join(parts, ", ") + ")";
    }
    case ExprKind::Select:
      return print_expr(*e.args[0], indent, 9) + "[" + print_expr(*e.args[1], indent, 0) + "]";
    case ExprKind::With: {
      std::string s = "with {\n";
      for (const Generator& g : e.generators) s += print_generator(g, indent + 1);
      s += ind(indent) + "} : ";
      if (e.op.kind == WithOpKind::Genarray) {
        s += "genarray(" + print_expr(*e.op.shape_or_target, indent, 0);
        if (e.op.default_value) s += ", " + print_expr(*e.op.default_value, indent, 0);
        s += ")";
      } else if (e.op.kind == WithOpKind::Fold) {
        s += "fold(" + e.op.fold_op + ", " + print_expr(*e.op.shape_or_target, indent, 0) + ")";
      } else {
        s += "modarray(" + print_expr(*e.op.shape_or_target, indent, 0) + ")";
      }
      return s;
    }
  }
  return "?";
}

}  // namespace

std::string print(const Expr& expr, int indent) { return print_expr(expr, indent, 0); }

std::string print(const Stmt& stmt, int indent) {
  switch (stmt.kind) {
    case StmtKind::Assign: {
      std::string s = ind(indent);
      if (stmt.decl_type) s += stmt.decl_type->to_string() + " ";
      s += stmt.target;
      if (stmt.value) s += " = " + print(*stmt.value, indent);
      return s + ";\n";
    }
    case StmtKind::ElemAssign: {
      std::string s = ind(indent) + stmt.target;
      for (const ExprPtr& i : stmt.indices) s.append("[").append(print(*i, indent)).append("]");
      return s + " = " + print(*stmt.value, indent) + ";\n";
    }
    case StmtKind::For: {
      std::string s = ind(indent) + "for (" + stmt.target + " = " + print(*stmt.for_init) + "; " +
                      print(*stmt.for_cond) + "; " + stmt.target + " = " + stmt.target + " + " +
                      print(*stmt.for_step) + ") {\n";
      s += print(stmt.body, indent + 1);
      return s + ind(indent) + "}\n";
    }
    case StmtKind::If: {
      std::string s = ind(indent) + "if (" + print(*stmt.value) + ") {\n";
      s += print(stmt.body, indent + 1);
      s += ind(indent) + "}";
      if (!stmt.else_body.empty()) {
        s += " else {\n" + print(stmt.else_body, indent + 1) + ind(indent) + "}";
      }
      return s + "\n";
    }
    case StmtKind::Return:
      return ind(indent) + "return (" + print(*stmt.value, indent) + ");\n";
  }
  return "?";
}

std::string print(const std::vector<StmtPtr>& block, int indent) {
  std::string s;
  for (const StmtPtr& st : block) s += print(*st, indent);
  return s;
}

std::string print(const FunDef& fn) {
  std::vector<std::string> params;
  params.reserve(fn.params.size());
  for (const auto& [t, n] : fn.params) params.push_back(t.to_string() + " " + n);
  std::string s = fn.return_type.to_string() + " " + fn.name + "(" + join(params, ", ") + ")\n{\n";
  s += print(fn.body, 1);
  return s + "}\n";
}

std::string print(const Module& mod) {
  std::string s;
  for (const FunDef& f : mod.functions) {
    s += print(f);
    s += "\n";
  }
  return s;
}

}  // namespace saclo::sac
