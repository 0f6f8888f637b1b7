#include "sac_cuda/codegen_text.hpp"

#include <functional>
#include <set>

#include "core/fmt.hpp"
#include "sac/printer.hpp"

namespace saclo::sac_cuda {

using sac::BinOpKind;
using sac::Expr;
using sac::ExprKind;
using sac::Stmt;
using sac::StmtKind;
using sac::StmtPtr;

namespace {

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
    case BinOpKind::Add:
    case BinOpKind::Sub: return 6;
    case BinOpKind::Mul:
    case BinOpKind::Div:
    case BinOpKind::Mod: return 7;
    case BinOpKind::Concat: return 0;
  }
  return 0;
}

/// Renders an expression as C. Selections become flat pointer
/// arithmetic using the array's row-major strides; `suffix` names the
/// arrays (`_h` for the host driver's copies).
class CEmitter {
 public:
  explicit CEmitter(const std::map<std::string, Shape>& shapes, std::string suffix = {})
      : shapes_(&shapes), suffix_(std::move(suffix)) {}

  /// Element `comps` of array `name`.
  std::string element(const std::string& name, const std::vector<const Expr*>& comps) const {
    auto it = shapes_->find(name);
    if (it == shapes_->end()) {
      throw CodegenError("CUDA emitter: no shape for array '" + name + "'");
    }
    const Index strides = it->second.strides();
    std::string off;
    for (std::size_t d = 0; d < comps.size(); ++d) {
      std::string term = expr(*comps[d], 7);
      if (strides[d] != 1) term = "(" + term + ") * " + std::to_string(strides[d]);
      off += (d ? " + " : "") + term;
    }
    return name + suffix_ + "[" + off + "]";
  }

  std::string expr(const Expr& e, int parent_prec = 0) const {
    switch (e.kind) {
      case ExprKind::IntLit:
      case ExprKind::BoolLit:
        return std::to_string(e.int_val);
      case ExprKind::FloatLit:
        return fixed(e.float_val, 6);
      case ExprKind::Var:
        return e.name;
      case ExprKind::BinOp: {
        const int prec = precedence(e.bin_op);
        std::string s = expr(*e.args[0], prec) + " " + sac::to_string(e.bin_op) + " " +
                        expr(*e.args[1], prec + 1);
        if (prec < parent_prec) s = "(" + s + ")";
        return s;
      }
      case ExprKind::UnOp:
        return cat(e.un_op == sac::UnOpKind::Neg ? "-" : "!", expr(*e.args[0], 8));
      case ExprKind::Call: {
        std::vector<std::string> parts;
        for (const sac::ExprPtr& a : e.args) parts.push_back(expr(*a));
        return e.name + "(" + join(parts, ", ") + ")";
      }
      case ExprKind::Select: {
        const Expr& arr = *e.args[0];
        const Expr& idx = *e.args[1];
        if (arr.kind != ExprKind::Var) {
          throw CodegenError("CUDA emitter: cannot select from " + sac::print(arr));
        }
        return element(arr.name, components({&idx}));
      }
      default:
        throw CodegenError("CUDA emitter: no C form for " + sac::print(e));
    }
  }

  /// The index components of bracket expressions: an array literal's
  /// elements, or one scalar.
  static std::vector<const Expr*> components(const std::vector<const Expr*>& indices) {
    std::vector<const Expr*> comps;
    for (const Expr* i : indices) {
      if (i->kind == ExprKind::ArrayLit) {
        for (const sac::ExprPtr& c : i->args) comps.push_back(c.get());
      } else {
        comps.push_back(i);
      }
    }
    return comps;
  }

 private:
  const std::map<std::string, Shape>* shapes_;
  std::string suffix_;
};

/// The host driver's C for a compiled host step: memcpy for the copies,
/// the loop nests as written, over the host copies `<name>_h`.
std::string emit_host_ops(const CudaProgram& program, const HostBlock& block) {
  const CEmitter em(program.shapes(), "_h");
  const auto& body = program.compiled().fn.body;
  std::string s = "  /* host-executed loop nest, compiled at plan time */\n";
  for (const HostOp& op : block.ops) {
    if (!op.nest) {
      s += cat("  memcpy(", op.dst, "_h, ", op.src, "_h, sizeof(int) * ",
               program.shapes().at(op.src).elements(), ");\n");
      continue;
    }
    const Stmt* level = body[op.stmt].get();
    std::string indent = "  ";
    for (std::size_t d = 0; d < op.nest->lattice.rank(); ++d) {
      const auto& dim = op.nest->lattice.dims[d];
      const std::string& v = op.nest->lattice.scalar_names[d];
      const std::int64_t end = dim.extent == 0 ? dim.lb : dim.lb + dim.step * (dim.extent - 1) + 1;
      s += cat(indent, "for (int ", v, " = ", dim.lb, "; ", v, " < ", end, "; ", v,
               " += ", dim.step, ") {\n");
      indent += "  ";
      if (d + 1 < op.nest->lattice.rank()) level = level->body[0].get();
    }
    for (const StmtPtr& st : level->body) {
      std::vector<const Expr*> indices;
      for (const sac::ExprPtr& i : st->indices) indices.push_back(i.get());
      s += cat(indent, em.element(st->target, CEmitter::components(indices)), " = ",
               em.expr(*st->value), ";\n");
    }
    for (std::size_t d = op.nest->lattice.rank(); d-- > 0;) {
      indent.resize(indent.size() - 2);
      s += indent + "}\n";
    }
  }
  return s;
}

}  // namespace

std::string emit_kernel_source(const GenKernel& k, const KernelGroup& group,
                               const std::map<std::string, Shape>& shapes) {
  CEmitter em(shapes);
  std::string s;
  // Signature: all read arrays const, the target array mutable.
  std::vector<std::string> params;
  for (const std::string& in : k.tape.array_names) {
    params.push_back("const int* " + in);
  }
  params.push_back("int* " + group.target);
  s += "__global__ void " + k.name + "(" + join(params, ", ") + ")\n{\n";
  s += "  int iGID = blockIdx.x * blockDim.x + threadIdx.x;\n";
  s += cat("  if (iGID >= ", k.threads, ") return;\n");
  // Dimension-0-fastest decode (the iGID % n mapping of Figure 11).
  const auto& dims = k.lattice.dims;
  std::string rest = "iGID";
  const Index full_strides = group.full.strides();
  std::string out_off;
  for (std::size_t d = 0; d < dims.size(); ++d) {
    const std::string t = cat("t", d);
    s += cat("  int ", t, " = ", rest, " % ", dims[d].extent, ";\n");
    if (d + 1 < dims.size()) {
      s += cat("  int r", d, " = ", rest, " / ", dims[d].extent, ";\n");
      rest = cat("r", d);
    }
    const std::string iv = k.lattice.scalar_names.empty()
                               ? cat(k.lattice.vector_name, "_", d)
                               : k.lattice.scalar_names[d];
    s += cat("  int ", iv, " = ", dims[d].lb, " + ", dims[d].step, " * ", t, ";\n");
    if (full_strides[d] == 1) {
      out_off += (d ? " + " : "") + iv;
    } else {
      out_off += (d ? " + " : "") + cat("(", iv, ") * ", full_strides[d]);
    }
  }
  // Body statements.
  for (const StmtPtr& st : k.source.body) {
    if (st->kind == StmtKind::Assign && st->value) {
      s += "  int " + st->target + " = " + em.expr(*st->value) + ";\n";
    }
  }
  // Cell element stores.
  std::vector<const Expr*> results;
  if (k.cell.rank() == 0) {
    results.push_back(k.source.value.get());
  } else {
    for (const sac::ExprPtr& e : k.source.value->args) results.push_back(e.get());
  }
  for (std::size_t c = 0; c < results.size(); ++c) {
    s += cat("  ", group.target, "[", out_off.empty() ? "0" : out_off,
             c > 0 ? cat(" + ", c) : std::string(), "] = ", em.expr(*results[c]), ";\n");
  }
  s += "}\n";
  return s;
}

std::string emit_cuda_source(const CudaProgram& program) {
  std::string s;
  s += "// Generated by the saclo SaC->CUDA backend (simulated nvcc input).\n";
  s += cat("// Function: ", program.compiled().fn.name, "\n\n");
  for (const Step& step : program.steps()) {
    if (step.kind != Step::Kind::Kernels) continue;
    for (const GenKernel& k : step.group.kernels) {
      s += emit_kernel_source(k, step.group, program.shapes());
      s += "\n";
    }
  }

  // Host driver.
  s += "void " + program.compiled().fn.name + "_host(";
  std::vector<std::string> params;
  for (const auto& [t, n] : program.compiled().fn.params) {
    (void)t;
    params.push_back("const int* " + n + "_h");
  }
  params.push_back("int* result_h");
  s += join(params, ", ") + ")\n{\n";
  std::set<std::string> on_device;
  for (const Step& step : program.steps()) {
    if (step.kind == Step::Kind::Host) {
      for (const std::string& r : step.host.array_reads) {
        if (on_device.count(r)) {
          s += cat("  cudaMemcpy(", r, "_h, ", r, ", sizeof(int) * N_", r,
                   ", cudaMemcpyDeviceToHost);  // host-executed statements follow\n");
          on_device.erase(r);
        }
      }
      s += step.host.compiled()
               ? emit_host_ops(program, step.host)
               : "  /* host-executed statements (for-loop tiler or scalar glue) */\n";
      continue;
    }
    const KernelGroup& g = step.group;
    for (const std::string& in : g.inputs) {
      if (!on_device.count(in)) {
        s += cat("  cudaMalloc(&", in, ", sizeof(int) * N_", in, ");\n");
        s += cat("  cudaMemcpyAsync(", in, ", ", in, "_h, sizeof(int) * N_", in,
                 ", cudaMemcpyHostToDevice);\n");
        on_device.insert(in);
      }
    }
    s += cat("  cudaMalloc(&", g.target, ", sizeof(int) * ", g.full.elements(), ");\n");
    if (g.needs_default_fill) {
      s += cat("  fill<<<", (g.full.elements() + 255) / 256, ", 256>>>(", g.target, ", ",
               g.default_value, ");\n");
    }
    for (const GenKernel& k : g.kernels) {
      std::vector<std::string> args;
      for (const std::string& in : k.tape.array_names) args.push_back(in);
      args.push_back(g.target);
      s += cat("  ", k.name, "<<<", (k.threads + 255) / 256, ", 256>>>(", join(args, ", "),
               ");\n");
    }
    on_device.insert(g.target);
  }
  const std::string& rv = program.return_var();
  if (on_device.count(rv)) {
    s += cat("  cudaMemcpyAsync(result_h, ", rv, ", sizeof(int) * N_", rv,
             ", cudaMemcpyDeviceToHost);\n");
  }
  s += "}\n";
  return s;
}

std::string CudaProgram::cuda_source() const { return emit_cuda_source(*this); }

}  // namespace saclo::sac_cuda
