#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/const_divisor.hpp"
#include "core/ndarray.hpp"
#include "gpu/backend.hpp"
#include "sac/affine.hpp"
#include "sac/ast.hpp"

namespace saclo::sac_cuda {

/// A compiled, allocation-free evaluator for straight-line scalar
/// generator bodies — the simulated analogue of the PTX a real CUDA
/// backend would produce. Kernel bodies run once per thread, so they
/// must not walk the AST or touch hash maps; the tape is a flat
/// postfix program over an int64 stack, run over a block of lanes.
enum class TapeOp : std::uint8_t {
  Push,      ///< push imm
  LoadSlot,  ///< push slots[a]
  StoreSlot, ///< slots[a] = pop
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Neg,
  Not,
  Abs,
  Min,
  Max,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And,
  Or,
  LoadArr,  ///< pop b indices, push arrays[a] element (bounds-checked);
            ///< negative a indexes the tape's immediate (constant)
            ///< arrays: imm_arrays[-a - 1] — the analogue of CUDA
            ///< __constant__ memory for literal coefficient tables
  LoadLin,  ///< push arrays[a].data[lin_offsets[b]]: a load whose offset
            ///< lin_loads[b] was proven in bounds at plan time
  DivImm,   ///< top = top / divisors[a]: `Push imm; Div` for a literal
            ///< imm with 2 <= |imm| (and imm != INT64_MIN), which cannot throw
  ModImm    ///< top = top % divisors[a], likewise for `Push imm; Mod`
};

struct TapeInstr {
  TapeOp op;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int64_t imm = 0;
};

/// A bound input array: element data plus row-major strides. Device
/// frames are 32-bit (the paper's pixel format); the tape widens on
/// load.
struct TapeArray {
  std::span<const std::int32_t> data;
  Index dims;
  Index strides;
};

/// A constant array baked into the tape (literal coefficient tables).
struct TapeImmediate {
  std::vector<std::int32_t> data;
  Index dims;
  Index strides;
};

/// Items one tape dispatch runs: each instruction is decoded once and
/// applied to a block of up to kLanes consecutive items.
using gpu::kLanes;

class TapeLanes;

/// A compiled kernel body: the statements execute first, then each
/// result expression's value is stored into its result slot. The
/// caller pre-fills the index-variable slots of a block of items and
/// reads the result slots afterwards.
class Tape {
 public:
  std::vector<TapeInstr> code;
  int slot_count = 0;
  int max_depth = 0;  ///< the deepest the operand stack gets
  std::vector<std::string> array_names;   ///< array id -> variable name
  std::vector<TapeImmediate> imm_arrays;  ///< constant arrays (negative LoadArr ids)
  std::vector<int> index_slots;           ///< slots of the index variables, in order
  std::vector<int> result_slots;          ///< slots holding the cell element values
  /// Per LoadLin operand b, the element offset of a load proven in
  /// bounds over the whole lattice: c0 + sum_d coeff[d] * t_d of the
  /// lattice coordinates, which a kernel steps instead of recomputing
  /// (and re-checking) the index per element.
  std::vector<sac::affine::Lin> lin_loads;
  /// The literal divisors of DivImm/ModImm, by operand a.
  std::vector<ConstDivisor> divisors;

  /// Counts for the kernel cost descriptor.
  int arith_ops() const;
  int array_loads() const;

  /// Whether any instruction reads `slot` (an index slot nobody reads
  /// need not be filled).
  bool reads_slot(int slot) const;

  /// Executes the whole tape on lanes [0, n) of `lanes`, n <= kLanes.
  /// The caller fills each index slot's row; lane l of a LoadLin b
  /// reads element lin_offsets[b] + l * lin_steps[b].
  ///
  /// Errors are those of running the lanes one after another: a lane
  /// that fails drops itself and every higher lane for the rest of the
  /// block, and after the block the first error of the lowest failing
  /// lane is thrown. The result rows of every lower lane are complete.
  void run(TapeLanes& lanes, int n, std::span<const TapeArray> arrays,
           std::span<const std::int64_t> lin_offsets = {},
           std::span<const std::int64_t> lin_steps = {}) const;

  std::string to_string() const;
};

/// The storage of one block run of a tape: slot_count slot rows and
/// max_depth stack rows, each kLanes wide. Allocate one per range of
/// items and reuse it for every block.
class TapeLanes {
 public:
  explicit TapeLanes(const Tape& tape);

  /// Row of slot `s`: lane l's value is at [l].
  std::int64_t* slot(int s) { return slots_.data() + static_cast<std::size_t>(s) * kLanes; }

 private:
  friend class Tape;
  std::vector<std::int64_t> slots_;
  std::vector<std::int64_t> stack_;
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
std::optional<Tape> compile_tape(const std::vector<sac::StmtPtr>& body,
                                 const std::vector<const sac::Expr*>& results,
                                 const std::vector<std::string>& index_vars,
                                 const std::map<std::string, Index>& array_dims,
                                 const sac::affine::Lattice* lattice = nullptr);

}  // namespace saclo::sac_cuda
