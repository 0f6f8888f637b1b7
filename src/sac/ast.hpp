#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/shape.hpp"

namespace saclo::sac {

/// Element types of mini-SaC arrays. Bools are represented as ints at
/// runtime (SaC-style), but the checker keeps them distinct.
enum class ElemType { Int, Float, Bool };

std::string to_string(ElemType t);

/// A source-level type annotation: `int`, `int[*]`, `int[.]`,
/// `int[.,.]`, `int[1080,1920]`, `float[3,.]`, ...
struct TypeSpec {
  enum class Dims {
    Scalar,    ///< `int`
    AnyRank,   ///< `int[*]` — rank unknown
    Described  ///< `int[d0,...,dn]` where each di is a constant or `.`
  };

  ElemType elem = ElemType::Int;
  Dims kind = Dims::Scalar;
  /// For Described: one entry per dimension; -1 encodes `.` (extent
  /// unknown, rank known).
  std::vector<std::int64_t> dims;

  std::string to_string() const;
};

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

enum class BinOpKind { Add, Sub, Mul, Div, Mod, Concat, Lt, Le, Gt, Ge, Eq, Ne, And, Or };
enum class UnOpKind { Neg, Not };

std::string to_string(BinOpKind op);

/// One `(lb <= iv < ub step s width w) { body } : value;` part of a
/// with-loop.
struct Generator {
  /// Bound expressions; nullptr encodes the `.` shorthand (derived
  /// from the with-loop operation during lowering).
  ExprPtr lower;
  bool lower_inclusive = true;
  ExprPtr upper;
  bool upper_inclusive = false;

  /// The index variable: either one vector variable (`iv`) or a
  /// destructuring pattern (`[i,j]`).
  std::vector<std::string> vars;
  bool vector_var = true;

  ExprPtr step;   ///< optional `step` filter
  ExprPtr width;  ///< optional `width` filter

  std::vector<StmtPtr> body;  ///< local bindings evaluated per index
  ExprPtr value;              ///< the cell value
};

enum class WithOpKind { Genarray, Modarray, Fold };

/// The operation part of a with-loop: `genarray(shape [, default])`,
/// `modarray(target)`, or `fold(op, neutral)` where op is one of the
/// reduction builtins (+, *, min, max).
struct WithOp {
  WithOpKind kind = WithOpKind::Genarray;
  ExprPtr shape_or_target;  ///< genarray shape / modarray target / fold neutral
  ExprPtr default_value;    ///< genarray only; nullptr == element-type zero
  std::string fold_op;      ///< fold only: "+", "*", "min", "max"
};

enum class ExprKind {
  IntLit,
  FloatLit,
  BoolLit,
  Var,
  ArrayLit,  ///< [e0, e1, ...]
  BinOp,
  UnOp,
  Call,
  Select,  ///< a[e] — e is an index vector (possibly shorter than rank)
  With
};

/// Expression node. A single struct with a kind tag keeps the pass
/// implementations compact (no visitor boilerplate); only the fields
/// relevant to `kind` are populated.
struct Expr {
  ExprKind kind = ExprKind::IntLit;
  int line = 0;

  std::int64_t int_val = 0;  ///< IntLit / BoolLit (0 or 1)
  double float_val = 0.0;    ///< FloatLit
  std::string name;          ///< Var / Call

  BinOpKind bin_op = BinOpKind::Add;
  UnOpKind un_op = UnOpKind::Neg;

  /// Children: ArrayLit elements; Call arguments; BinOp {lhs,rhs};
  /// UnOp {operand}; Select {array, index}.
  std::vector<ExprPtr> args;

  /// With-loop payload (kind == With).
  std::vector<Generator> generators;
  WithOp op;

  ExprPtr clone() const;
};

enum class StmtKind { Assign, ElemAssign, For, If, Return };

/// Statement node (same single-struct style as Expr).
struct Stmt {
  StmtKind kind = StmtKind::Assign;
  int line = 0;

  /// Assign: `[type] target = value;`
  /// ElemAssign: `target[i0][i1]... = value;` (indices are the
  ///   successive bracket expressions)
  /// For: `for (target = init; cond; target += step_amount) body`
  std::string target;
  std::optional<TypeSpec> decl_type;
  std::vector<ExprPtr> indices;
  ExprPtr value;  ///< Assign/ElemAssign rhs; If condition; Return value

  ExprPtr for_init;
  ExprPtr for_cond;
  ExprPtr for_step;  ///< increment amount (i++ parses as 1)

  std::vector<StmtPtr> body;       ///< For body / If then-branch
  std::vector<StmtPtr> else_body;  ///< If else-branch

  /// Set by specialisation: the user function whose call in the entry
  /// function's body expanded to this statement (`hfilter_nongeneric`
  /// for what `mid = hfilter_nongeneric(x)` inlines); empty for the
  /// statements the entry function writes itself.
  std::string origin;

  StmtPtr clone() const;
};

std::vector<StmtPtr> clone_block(const std::vector<StmtPtr>& block);
Generator clone_generator(const Generator& g);

/// A function definition.
struct FunDef {
  std::string name;
  TypeSpec return_type;
  std::vector<std::pair<TypeSpec, std::string>> params;
  std::vector<StmtPtr> body;
  int line = 0;
};

/// A parsed module (compilation unit).
struct Module {
  std::vector<FunDef> functions;

  const FunDef* find(const std::string& name) const;
};

/// Convenience constructors used by the passes.
ExprPtr make_int(std::int64_t v);
ExprPtr make_var(std::string name);
ExprPtr make_array_lit(std::vector<ExprPtr> elems);
ExprPtr make_index_lit(const Index& idx);
ExprPtr make_bin(BinOpKind op, ExprPtr lhs, ExprPtr rhs);
ExprPtr make_select(ExprPtr array, ExprPtr index);

}  // namespace saclo::sac
