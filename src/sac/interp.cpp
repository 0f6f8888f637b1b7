#include "sac/interp.hpp"

#include <algorithm>

#include "core/fmt.hpp"
#include "core/scope_exit.hpp"

namespace saclo::sac {

// --- environment -------------------------------------------------------------

Value* Interp::Env::find(const std::string& name) {
  for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
    auto f = it->vars.find(name);
    if (f != it->vars.end()) return &f->second;
  }
  return nullptr;
}

void Interp::Env::define(const std::string& name, Value v) {
  scopes.back().vars.insert_or_assign(name, std::move(v));
}

void Interp::Env::assign(const std::string& name, Value v) {
  for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
    auto f = it->vars.find(name);
    if (f != it->vars.end()) {
      f->second = std::move(v);
      return;
    }
    if (it->barrier) break;
  }
  // First assignment introduces the variable (SaC-style untyped local).
  define(name, std::move(v));
}

// --- entry points --------------------------------------------------------------

Value Interp::call(const std::string& fn, std::vector<Value> args) {
  if (is_builtin(fn)) return eval_builtin(fn, args);
  const FunDef* def = mod_->find(fn);
  if (def == nullptr) throw EvalError(cat("call to unknown function '", fn, "'"));
  if (def->params.size() != args.size()) {
    throw EvalError(cat("function '", fn, "' expects ", def->params.size(), " arguments, got ",
                        args.size()));
  }
  Env env;
  env.push(true);
  for (std::size_t i = 0; i < args.size(); ++i) {
    env.define(def->params[i].second, std::move(args[i]));
  }
  Value returned;
  if (!exec_block(def->body, env, &returned)) {
    throw EvalError(cat("function '", fn, "' did not return a value"));
  }
  return returned;
}

Value Interp::eval_closed(const Expr& expr) {
  Env env;
  env.push(true);
  return eval(expr, env);
}

std::optional<Value> Interp::exec_stmts(const std::vector<StmtPtr>& stmts,
                                        std::map<std::string, Value>& vars) {
  Env env;
  env.push(true);
  // The bindings move in and back out however the block ends: no array
  // is copied.
  env.scopes.front().vars = std::move(vars);
  const ScopeExit give_back([&] { vars = std::move(env.scopes.front().vars); });
  Value returned;
  if (exec_block(stmts, env, &returned)) return returned;
  return std::nullopt;
}

// --- statements ----------------------------------------------------------------

bool Interp::exec_block(const std::vector<StmtPtr>& block, Env& env, Value* returned) {
  for (const StmtPtr& s : block) {
    if (exec(*s, env, returned)) return true;
  }
  return false;
}

bool Interp::exec(const Stmt& stmt, Env& env, Value* returned) {
  switch (stmt.kind) {
    case StmtKind::Assign: {
      Value v = stmt.value ? eval(*stmt.value, env) : Value();
      if (!stmt.value && stmt.decl_type && stmt.decl_type->kind == TypeSpec::Dims::Described) {
        // `int[1080,1920] frame;` — a zero-initialised declared array.
        Index dims;
        for (std::int64_t d : stmt.decl_type->dims) {
          if (d < 0) throw EvalError(cat("declaration of '", stmt.target,
                                         "' without initialiser needs concrete extents"));
          dims.push_back(d);
        }
        if (stmt.decl_type->elem == ElemType::Float) {
          v = Value(FloatArray(Shape(dims)));
        } else {
          v = Value(IntArray(Shape(dims)));
        }
      }
      env.assign(stmt.target, std::move(v));
      return false;
    }
    case StmtKind::ElemAssign: {
      Value* slot = env.find(stmt.target);
      if (slot == nullptr) {
        throw EvalError(cat("element assignment to unknown variable '", stmt.target,
                            "' at line ", stmt.line));
      }
      const Value rhs = eval(*stmt.value, env);
      elem_assign(*slot, stmt.indices, rhs, env);
      return false;
    }
    case StmtKind::For: {
      env.assign(stmt.target, eval(*stmt.for_init, env));
      for (;;) {
        if (!eval(*stmt.for_cond, env).as_bool()) break;
        if (exec_block(stmt.body, env, returned)) return true;
        const std::int64_t step = eval(*stmt.for_step, env).as_int();
        Value* iv = env.find(stmt.target);
        *iv = Value::from_int(iv->as_int() + step);
        ops_ += 2;
      }
      return false;
    }
    case StmtKind::If: {
      if (eval(*stmt.value, env).as_bool()) {
        return exec_block(stmt.body, env, returned);
      }
      return exec_block(stmt.else_body, env, returned);
    }
    case StmtKind::Return: {
      if (returned != nullptr) *returned = eval(*stmt.value, env);
      return true;
    }
  }
  return false;
}

void Interp::elem_assign(Value& target, const std::vector<ExprPtr>& indices, const Value& rhs,
                         Env& env) {
  // Concatenate all bracket expressions into one prefix index.
  Index prefix;
  for (const ExprPtr& e : indices) {
    const Value idx = eval(*e, env);
    if (idx.shape().rank() == 0) {
      prefix.push_back(idx.as_int());
    } else {
      const Index v = idx.as_index_vector();
      prefix.insert(prefix.end(), v.begin(), v.end());
    }
  }
  const Shape& full = target.shape();
  if (prefix.size() > full.rank()) {
    throw EvalError(cat("index of rank ", prefix.size(), " into array of rank ", full.rank()));
  }
  const Shape cell = full.drop(prefix.size());
  if (rhs.shape() != cell) {
    throw EvalError(cat("element assignment shape mismatch: writing ", rhs.shape().to_string(),
                        " into cell of shape ", cell.to_string()));
  }
  // Compute the linear offset of the cell.
  Index at = prefix;
  at.resize(full.rank(), 0);
  const std::int64_t base = full.linearize(at);
  const std::int64_t n = cell.elements();
  ops_ += static_cast<double>(n);
  if (target.is_int()) {
    if (!rhs.is_int()) throw EvalError("assigning float cell into int array");
    for (std::int64_t i = 0; i < n; ++i) target.ints()[base + i] = rhs.ints()[i];
  } else {
    if (!rhs.is_float()) throw EvalError("assigning int cell into float array");
    for (std::int64_t i = 0; i < n; ++i) target.floats()[base + i] = rhs.floats()[i];
  }
}

// --- expressions ------------------------------------------------------------------

Value Interp::eval(const Expr& expr, Env& env) {
  switch (expr.kind) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
      return Value::from_int(expr.int_val);
    case ExprKind::FloatLit:
      return Value::from_double(expr.float_val);
    case ExprKind::Var: {
      Value* v = env.find(expr.name);
      if (v == nullptr) throw EvalError(cat("unknown variable '", expr.name, "' at line ", expr.line));
      return *v;
    }
    case ExprKind::ArrayLit: {
      if (expr.args.empty()) return Value(IntArray(Shape{0}));
      std::vector<Value> elems;
      elems.reserve(expr.args.size());
      for (const ExprPtr& a : expr.args) elems.push_back(eval(*a, env));
      const Shape cell = elems[0].shape();
      const bool is_int = elems[0].is_int();
      Shape full = Shape{static_cast<std::int64_t>(elems.size())}.concat(cell);
      const std::int64_t cell_n = cell.elements();
      if (is_int) {
        IntArray out(full);
        for (std::size_t i = 0; i < elems.size(); ++i) {
          if (!elems[i].is_int() || elems[i].shape() != cell) {
            throw EvalError("heterogeneous array literal");
          }
          for (std::int64_t j = 0; j < cell_n; ++j) {
            out[static_cast<std::int64_t>(i) * cell_n + j] = elems[i].ints()[j];
          }
        }
        return Value(std::move(out));
      }
      FloatArray out(full);
      for (std::size_t i = 0; i < elems.size(); ++i) {
        if (!elems[i].is_float() || elems[i].shape() != cell) {
          throw EvalError("heterogeneous array literal");
        }
        for (std::int64_t j = 0; j < cell_n; ++j) {
          out[static_cast<std::int64_t>(i) * cell_n + j] = elems[i].floats()[j];
        }
      }
      return Value(std::move(out));
    }
    case ExprKind::BinOp:
      return eval_binop(expr, env);
    case ExprKind::UnOp: {
      const Value v = eval(*expr.args[0], env);
      ops_ += static_cast<double>(v.shape().elements());
      if (expr.un_op == UnOpKind::Not) return Value::from_bool(!v.as_bool());
      if (v.is_int()) {
        IntArray out = v.ints();
        for (std::int64_t i = 0; i < out.elements(); ++i) out[i] = -out[i];
        return Value(std::move(out));
      }
      FloatArray out = v.floats();
      for (std::int64_t i = 0; i < out.elements(); ++i) out[i] = -out[i];
      return Value(std::move(out));
    }
    case ExprKind::Call: {
      // shape(v) reads the shape of v where it is bound, without a copy
      // of v (the generic output tiler asks once per element).
      if (expr.name == "shape" && expr.args.size() == 1 && expr.args[0]->kind == ExprKind::Var) {
        if (const Value* v = env.find(expr.args[0]->name)) {
          ops_ += 1;
          const Index& dims = v->shape().dims();
          return Value(IntArray(Shape{static_cast<std::int64_t>(dims.size())},
                                std::vector<std::int64_t>(dims.begin(), dims.end())));
        }
      }
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const ExprPtr& a : expr.args) args.push_back(eval(*a, env));
      ops_ += 1;
      return call(expr.name, std::move(args));
    }
    case ExprKind::Select:
      return eval_select(expr, env);
    case ExprKind::With:
      return eval_with(expr, env);
  }
  throw EvalError("unreachable expression kind");
}

namespace {

template <typename T>
T scalar_op(BinOpKind op, T a, T b) {
  switch (op) {
    case BinOpKind::Add: return a + b;
    case BinOpKind::Sub: return a - b;
    case BinOpKind::Mul: return a * b;
    case BinOpKind::Div:
      if constexpr (std::is_integral_v<T>) {
        if (b == 0) throw EvalError("division by zero");
      }
      return a / b;
    case BinOpKind::Mod:
      if constexpr (std::is_integral_v<T>) {
        if (b == 0) throw EvalError("modulo by zero");
        return a % b;
      } else {
        throw EvalError("'%' on floats");
      }
    case BinOpKind::Lt: return static_cast<T>(a < b);
    case BinOpKind::Le: return static_cast<T>(a <= b);
    case BinOpKind::Gt: return static_cast<T>(a > b);
    case BinOpKind::Ge: return static_cast<T>(a >= b);
    case BinOpKind::Eq: return static_cast<T>(a == b);
    case BinOpKind::Ne: return static_cast<T>(a != b);
    case BinOpKind::And: return static_cast<T>(a != 0 && b != 0);
    case BinOpKind::Or: return static_cast<T>(a != 0 || b != 0);
    case BinOpKind::Concat: throw EvalError("unreachable: concat handled separately");
  }
  throw EvalError("unreachable binop");
}

template <typename T>
NDArray<T> elementwise(BinOpKind op, const NDArray<T>& a, const NDArray<T>& b) {
  // Shapes must match, or one side is a scalar (broadcast).
  if (a.shape() == b.shape()) {
    NDArray<T> out(a.shape());
    for (std::int64_t i = 0; i < out.elements(); ++i) out[i] = scalar_op(op, a[i], b[i]);
    return out;
  }
  if (a.shape().rank() == 0) {
    NDArray<T> out(b.shape());
    for (std::int64_t i = 0; i < out.elements(); ++i) out[i] = scalar_op(op, a[0], b[i]);
    return out;
  }
  if (b.shape().rank() == 0) {
    NDArray<T> out(a.shape());
    for (std::int64_t i = 0; i < out.elements(); ++i) out[i] = scalar_op(op, a[i], b[0]);
    return out;
  }
  throw EvalError(cat("shape mismatch in elementwise op: ", a.shape().to_string(), " vs ",
                      b.shape().to_string()));
}

}  // namespace

Value Interp::eval_binop(const Expr& expr, Env& env) {
  if (expr.bin_op == BinOpKind::Concat) {
    const Value a = eval(*expr.args[0], env);
    const Value b = eval(*expr.args[1], env);
    ops_ += static_cast<double>(a.shape().elements() + b.shape().elements());
    return eval_builtin("CAT", {a, b});
  }
  if (expr.bin_op == BinOpKind::And || expr.bin_op == BinOpKind::Or) {
    // Short-circuit on scalars.
    const Value a = eval(*expr.args[0], env);
    ops_ += 1;
    if (a.shape().rank() == 0) {
      const bool av = a.as_bool();
      if (expr.bin_op == BinOpKind::And && !av) return Value::from_bool(false);
      if (expr.bin_op == BinOpKind::Or && av) return Value::from_bool(true);
      return Value::from_bool(eval(*expr.args[1], env).as_bool());
    }
    const Value b = eval(*expr.args[1], env);
    return Value(elementwise(expr.bin_op, a.ints(), b.ints()));
  }
  const Value a = eval(*expr.args[0], env);
  const Value b = eval(*expr.args[1], env);
  ops_ += static_cast<double>(std::max(a.shape().elements(), b.shape().elements()));
  if (a.is_int() && b.is_int()) {
    return Value(elementwise(expr.bin_op, a.ints(), b.ints()));
  }
  if (a.is_float() && b.is_float()) {
    return Value(elementwise(expr.bin_op, a.floats(), b.floats()));
  }
  throw EvalError(cat("mixed int/float operands to '", to_string(expr.bin_op), "' at line ",
                      expr.line));
}

Value Interp::eval_select(const Expr& expr, Env& env) {
  // A variable operand is read where it is bound: a copy of the whole
  // array per selected element made element loops quadratic.
  const Expr& operand = *expr.args[0];
  const bool by_name = operand.kind == ExprKind::Var;
  Value held;
  if (by_name) {
    if (env.find(operand.name) == nullptr) held = eval(operand, env);  // raises its error
  } else {
    held = eval(operand, env);
  }
  const Value idx = eval(*expr.args[1], env);
  // The index cannot rebind the operand: with-loop bodies run in
  // barrier scopes.
  const Value& arr = by_name ? *env.find(operand.name) : held;
  Index prefix = idx.shape().rank() == 0 ? Index{idx.as_int()} : idx.as_index_vector();
  const Shape& full = arr.shape();
  if (prefix.size() > full.rank()) {
    throw EvalError(cat("selection index ", bracketed(prefix), " has higher rank than array ",
                        full.to_string(), " at line ", expr.line));
  }
  for (std::size_t d = 0; d < prefix.size(); ++d) {
    if (prefix[d] < 0 || prefix[d] >= full[d]) {
      throw EvalError(cat("selection index ", bracketed(prefix), " out of bounds for ",
                          full.to_string(), " at line ", expr.line));
    }
  }
  const Shape cell = full.drop(prefix.size());
  Index at = prefix;
  at.resize(full.rank(), 0);
  const std::int64_t base = full.linearize(at);
  const std::int64_t n = cell.elements();
  ops_ += static_cast<double>(n);
  if (arr.is_int()) {
    if (cell.rank() == 0) return Value::from_int(arr.ints()[base]);
    IntArray out(cell);
    for (std::int64_t i = 0; i < n; ++i) out[i] = arr.ints()[base + i];
    return Value(std::move(out));
  }
  if (cell.rank() == 0) return Value::from_double(arr.floats()[base]);
  FloatArray out(cell);
  for (std::int64_t i = 0; i < n; ++i) out[i] = arr.floats()[base + i];
  return Value(std::move(out));
}

// --- with-loops -----------------------------------------------------------------

Interp::GenBounds Interp::resolve_generator(const Generator& g, const Shape& frame, Env& env) {
  const std::size_t rank = frame.rank();
  GenBounds b;
  auto as_vec = [&](const Value& v) {
    Index out = v.shape().rank() == 0 ? Index(rank, v.as_int()) : v.as_index_vector();
    if (out.size() != rank) {
      throw EvalError(cat("generator bound ", bracketed(out), " has rank ", out.size(),
                          ", frame has rank ", rank));
    }
    return out;
  };
  b.lower = g.lower ? as_vec(eval(*g.lower, env)) : Index(rank, 0);
  if (g.lower && !g.lower_inclusive) {
    for (auto& v : b.lower) ++v;
  }
  if (g.upper) {
    b.upper = as_vec(eval(*g.upper, env));
    if (g.upper_inclusive) {
      for (auto& v : b.upper) ++v;
    }
  } else {
    b.upper = frame.dims();  // `.` == up to the frame extent
  }
  b.step = g.step ? as_vec(eval(*g.step, env)) : Index(rank, 1);
  b.width = g.width ? as_vec(eval(*g.width, env)) : Index(rank, 1);
  for (std::size_t d = 0; d < rank; ++d) {
    if (b.step[d] < 1) throw EvalError(cat("generator step ", bracketed(b.step), " must be >= 1"));
    if (b.width[d] < 1 || b.width[d] > b.step[d]) {
      throw EvalError(cat("generator width ", bracketed(b.width), " must be in [1, step]"));
    }
  }
  return b;
}

Value Interp::eval_with(const Expr& expr, Env& env) {
  if (expr.op.kind == WithOpKind::Fold) {
    // fold(op, neutral): reduce the (scalar) cell values of every
    // generator with an associative-commutative operator.
    Value acc = eval(*expr.op.shape_or_target, env);
    if (acc.shape().rank() != 0) {
      throw EvalError(cat("fold neutral must be a scalar, got shape ",
                          acc.shape().to_string(), " at line ", expr.line));
    }
    const std::string& op = expr.op.fold_op;
    auto combine = [&](const Value& a, const Value& b) -> Value {
      if (op == "+") {
        if (a.is_int()) return Value::from_int(a.as_int() + b.as_int());
        return Value::from_double(a.as_double() + b.as_double());
      }
      if (op == "*") {
        if (a.is_int()) return Value::from_int(a.as_int() * b.as_int());
        return Value::from_double(a.as_double() * b.as_double());
      }
      if (op == "min" || op == "max") return eval_builtin(op, {a, b});
      throw EvalError(cat("unsupported fold operator '", op, "' at line ", expr.line));
    };
    for (const Generator& g : expr.generators) {
      if (!g.lower || !g.upper) {
        throw EvalError(cat("fold generators need explicit bounds at line ", expr.line));
      }
      // The frame for bound resolution is the generator's own exclusive
      // upper bound.
      Value ub = eval(*g.upper, env);
      Index frame_dims = ub.as_index_vector();
      if (g.upper_inclusive) {
        for (auto& v : frame_dims) ++v;
      }
      const Shape frame((frame_dims));
      const GenBounds b = resolve_generator(g, frame, env);
      const std::size_t rank = frame.rank();
      if (!g.vector_var && g.vars.size() != rank) {
        throw EvalError(cat("generator pattern has ", g.vars.size(), " variables, rank is ",
                            rank, " at line ", expr.line));
      }
      Index tile(rank, 0), w(rank, 0);
      bool any = true;
      for (std::size_t d = 0; d < rank; ++d) {
        if (b.lower[d] >= b.upper[d]) any = false;
      }
      if (!any) continue;
      auto current_iv = [&]() {
        Index out(rank);
        for (std::size_t d = 0; d < rank; ++d) out[d] = b.lower[d] + tile[d] * b.step[d] + w[d];
        return out;
      };
      auto advance = [&]() -> bool {
        for (std::size_t d = rank; d-- > 0;) {
          ++w[d];
          if (b.lower[d] + tile[d] * b.step[d] + w[d] < b.upper[d] && w[d] < b.width[d]) {
            return true;
          }
          w[d] = 0;
          ++tile[d];
          if (b.lower[d] + tile[d] * b.step[d] < b.upper[d]) return true;
          tile[d] = 0;
        }
        return false;
      };
      for (bool more = true; more; more = advance()) {
        const Index iv = current_iv();
        env.push(true);
        if (g.vector_var) {
          IntArray ivv(Shape{static_cast<std::int64_t>(rank)});
          for (std::size_t d = 0; d < rank; ++d) ivv[static_cast<std::int64_t>(d)] = iv[d];
          env.define(g.vars[0], Value(std::move(ivv)));
        } else {
          for (std::size_t d = 0; d < rank; ++d) env.define(g.vars[d], Value::from_int(iv[d]));
        }
        Value returned;
        exec_block(g.body, env, &returned);
        Value v = eval(*g.value, env);
        env.scopes.pop_back();
        if (v.shape().rank() != 0) {
          throw EvalError(cat("fold cells must be scalars, got ", v.shape().to_string(),
                              " at line ", expr.line));
        }
        acc = combine(acc, v);
        ops_ += 3;
      }
    }
    return acc;
  }

  // Determine the frame (the index space the generators range over).
  Shape frame;
  Value result;
  bool result_ready = false;
  Shape cell;
  bool cell_known = false;
  bool is_int = true;

  if (expr.op.kind == WithOpKind::Genarray) {
    const Value shp = eval(*expr.op.shape_or_target, env);
    frame = Shape(shp.as_index_vector());
    if (expr.op.default_value) {
      const Value def = eval(*expr.op.default_value, env);
      cell = def.shape();
      cell_known = true;
      is_int = def.is_int();
      const Shape full = frame.concat(cell);
      if (is_int) {
        IntArray out(full);
        std::int64_t pos = 0;
        const std::int64_t cn = cell.elements();
        for (std::int64_t i = 0; i < frame.elements(); ++i) {
          for (std::int64_t j = 0; j < cn; ++j) out[pos++] = def.ints()[j];
        }
        result = Value(std::move(out));
      } else {
        FloatArray out(full);
        std::int64_t pos = 0;
        const std::int64_t cn = cell.elements();
        for (std::int64_t i = 0; i < frame.elements(); ++i) {
          for (std::int64_t j = 0; j < cn; ++j) out[pos++] = def.floats()[j];
        }
        result = Value(std::move(out));
      }
      result_ready = true;
    }
  } else {
    const Value target = eval(*expr.op.shape_or_target, env);
    // The generator rank of a modarray may be lower than the array
    // rank; resolve it from the first generator's index variable count
    // when destructured, else from the target rank.
    std::size_t gen_rank = target.shape().rank();
    if (!expr.generators.empty() && !expr.generators[0].vector_var) {
      gen_rank = expr.generators[0].vars.size();
    }
    frame = target.shape().take(gen_rank);
    cell = target.shape().drop(gen_rank);
    cell_known = true;
    is_int = target.is_int();
    result = target;
    result_ready = true;
  }

  const std::int64_t cell_elems = cell_known ? cell.elements() : 0;

  for (const Generator& g : expr.generators) {
    if (!g.vector_var && g.vars.size() != frame.rank()) {
      throw EvalError(cat("generator pattern [", join(g.vars, ","), "] has ", g.vars.size(),
                          " variables, frame rank is ", frame.rank()));
    }
    const GenBounds b = resolve_generator(g, frame, env);

    // Iterate the generator's lattice.
    Index iv = b.lower;
    bool active_any = false;
    auto in_range = [&]() {
      for (std::size_t d = 0; d < iv.size(); ++d) {
        if (iv[d] >= b.upper[d]) return false;
      }
      return true;
    };
    if (!in_range()) continue;

    // Odometer over (tile, width) coordinates.
    const std::size_t rank = frame.rank();
    Index tile(rank, 0), w(rank, 0);
    auto current_iv = [&]() {
      Index out(rank);
      for (std::size_t d = 0; d < rank; ++d) out[d] = b.lower[d] + tile[d] * b.step[d] + w[d];
      return out;
    };
    auto advance = [&]() -> bool {
      for (std::size_t d = rank; d-- > 0;) {
        ++w[d];
        if (b.lower[d] + tile[d] * b.step[d] + w[d] < b.upper[d] && w[d] < b.width[d]) return true;
        w[d] = 0;
        ++tile[d];
        if (b.lower[d] + tile[d] * b.step[d] < b.upper[d]) return true;
        tile[d] = 0;
      }
      return false;
    };

    for (bool more = true; more; more = advance()) {
      iv = current_iv();
      active_any = true;
      env.push(true);
      if (g.vector_var) {
        IntArray ivv(Shape{static_cast<std::int64_t>(rank)});
        for (std::size_t d = 0; d < rank; ++d) ivv[static_cast<std::int64_t>(d)] = iv[d];
        env.define(g.vars[0], Value(std::move(ivv)));
      } else {
        for (std::size_t d = 0; d < rank; ++d) env.define(g.vars[d], Value::from_int(iv[d]));
      }
      Value returned;
      exec_block(g.body, env, &returned);
      Value v = eval(*g.value, env);
      env.scopes.pop_back();
      ops_ += 2;

      if (!cell_known) {
        cell = v.shape();
        cell_known = true;
        is_int = v.is_int();
      }
      if (!result_ready) {
        const Shape full = frame.concat(cell);
        result = is_int ? Value(IntArray(full)) : Value(FloatArray(full));
        result_ready = true;
      }
      if (v.shape() != cell || v.is_int() != is_int) {
        throw EvalError(cat("with-loop cell shape mismatch: ", v.shape().to_string(), " vs ",
                            cell.to_string(), " at line ", expr.line));
      }
      // Write the cell at iv.
      Index at = iv;
      at.resize(frame.rank() + cell.rank(), 0);
      const Shape full = frame.concat(cell);
      const std::int64_t base = full.linearize(at);
      const std::int64_t cn = cell_known ? cell.elements() : cell_elems;
      ops_ += static_cast<double>(cn);
      if (is_int) {
        for (std::int64_t i = 0; i < cn; ++i) result.ints()[base + i] = v.ints()[i];
      } else {
        for (std::int64_t i = 0; i < cn; ++i) result.floats()[base + i] = v.floats()[i];
      }
    }
    (void)active_any;
  }

  if (!result_ready) {
    // No generator produced a cell and no default: an empty genarray of
    // scalars.
    result = Value(IntArray(frame));
  }
  return result;
}

Value run_function(const Module& mod, const std::string& fn, std::vector<Value> args) {
  Interp interp(mod);
  return interp.call(fn, std::move(args));
}

}  // namespace saclo::sac
