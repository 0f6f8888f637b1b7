#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/tape.hpp"
#include "gpu/backend.hpp"
#include "sac/affine.hpp"
#include "sac/ast.hpp"

namespace saclo::sac_cuda {

/// Items one tape dispatch runs on the SaC route: each instruction is
/// decoded once and applied to a block of up to kLanes consecutive
/// items.
using gpu::kLanes;

/// A tape compiled from a generator body, with the plan-time proofs the
/// kernel launch steps its loads by.
struct KernelTape : Tape {
  /// Per LoadLin operand b, the element offset of a load proven in
  /// bounds over the whole lattice: c0 + sum_d coeff[d] * t_d of the
  /// lattice coordinates, which a kernel steps instead of recomputing
  /// (and re-checking) the index per element.
  std::vector<sac::affine::Lin> lin_loads;
};

/// Compiles straight-line statements plus result expressions into a
/// tape. Returns nullopt when the body is not tape-able (vector locals
/// that survived simplification, nested with-loops, float arithmetic,
/// control flow, ...), in which case the caller falls back to host
/// execution.
///
/// Given the generator's iteration lattice (whose scalar names are
/// `index_vars`), the tape is specialised to it by plan-time proofs:
/// a full-rank selection from a bound array whose index components are
/// affine and provably in bounds over the whole lattice becomes one
/// LoadLin, and a top-level binding that is then no longer read and
/// cannot throw is dropped. Everything not proven keeps the checked
/// path, so the results and the errors are those of the plain tape.
/// A division or modulo by a literal other than 0 and ±1 becomes one
/// DivImm/ModImm that multiplies by the divisor's plan-time reciprocal.
std::optional<KernelTape> compile_tape(const std::vector<sac::StmtPtr>& body,
                                       const std::vector<const sac::Expr*>& results,
                                       const std::vector<std::string>& index_vars,
                                       const std::map<std::string, Index>& array_dims,
                                       const sac::affine::Lattice* lattice = nullptr);

/// Whether running a compiled tape can raise: a checked load, or a
/// division or modulo whose divisor is not a non-zero literal.
bool can_throw(const Tape& tape);

}  // namespace saclo::sac_cuda
