#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/const_divisor.hpp"
#include "core/ndarray.hpp"

namespace saclo {

/// A compiled, allocation-free evaluator for straight-line integer
/// kernel bodies — the simulated analogue of the PTX a real GPU backend
/// would produce. Kernel bodies run once per thread, so they must not
/// walk a syntax tree or touch hash maps; the tape is a flat postfix
/// program over an int64 stack, run over a block of lanes. Both routes
/// compile to it: SaC generator bodies (sac_cuda::compile_tape) and
/// GASPARD IPs (aol::lower_to_tape).
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
            ///< was proven in bounds at plan time
  DivImm,   ///< top = top / divisors[a]: `Push imm; Div` for a literal
            ///< imm with 2 <= |imm| (and imm != INT64_MIN), which cannot throw
  ModImm,   ///< top = top % divisors[a], likewise for `Push imm; Mod`
  SumSlots, ///< push the sum of the b slots sum_slots[a, a + b), up to four
            ///< slot rows per pass
  DivModImm ///< top = (top / divisors[a]) b (top % divisors[a]) for the
            ///< binary TapeOp b (Add, Sub, Mul, Min or Max): quotient
            ///< and remainder from one reciprocal multiply
};

struct TapeInstr {
  TapeOp op;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int64_t imm = 0;
};

/// A bound input array: element data plus row-major strides. Device
/// frames are 32-bit (the paper's pixel format); the tape widens on
/// load. The SaC interpreter's host values are 64-bit: a host-executed
/// loop nest binds them in place as `wide`, which, when not empty, the
/// loads read instead of `data`.
struct TapeArray {
  std::span<const std::int32_t> data;
  Index dims;
  Index strides;
  std::span<const std::int64_t> wide = {};
};

/// A constant array baked into the tape (literal coefficient tables).
struct TapeImmediate {
  std::vector<std::int32_t> data;
  Index dims;
  Index strides;
};

class TapeLanes;

/// The most lanes one run of a tape covers.
inline constexpr int kMaxTapeLanes = 128;

/// A compiled kernel body. The caller fills the input slots of a block
/// of items, runs the tape, and reads the result slots afterwards.
class Tape {
 public:
  std::vector<TapeInstr> code;
  int slot_count = 0;
  int max_depth = 0;  ///< the deepest the operand stack gets
  std::vector<std::string> array_names;   ///< array id -> variable name
  std::vector<TapeImmediate> imm_arrays;  ///< constant arrays (negative LoadArr ids)
  /// Slots the caller fills before a run: a SaC generator's index
  /// variables, in order, or an IP's input elements.
  std::vector<int> input_slots;
  std::vector<int> result_slots;  ///< slots holding the output element values
  /// The slots SumSlots adds, each instruction's a contiguous run.
  std::vector<int> sum_slots;
  /// The literal divisors of DivImm/ModImm/DivModImm, by operand a.
  std::vector<ConstDivisor> divisors;

  /// Counts for the kernel cost descriptor.
  int arith_ops() const;
  int array_loads() const;

  /// Whether any instruction reads `slot` (an input slot nobody reads
  /// need not be filled).
  bool reads_slot(int slot) const;

  /// The divisor operand of literal divisor k (2 <= |k|, k !=
  /// INT64_MIN), adding it to `divisors` on first use.
  std::int32_t divisor_id(std::int64_t k);

  /// Sets max_depth from the code.
  void measure_depth();

  /// Executes the whole tape on lanes [0, n) of `lanes`, n at most its
  /// width. The caller fills each input slot's row; lane l of a
  /// LoadLin b reads element lin_offsets[b] + l * lin_steps[b].
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

/// The storage of one block run of a tape: slot_count slot rows `width`
/// lanes wide (1 to kMaxTapeLanes), and max_depth stack rows
/// kMaxTapeLanes wide. Make one per range of items and reuse it for
/// every block.
///
/// A tape writes every slot and stack row before it reads it (its
/// input slots are the caller's to fill), so the rows need no clearing:
/// a kernel body takes them from the calling thread's grow-only scratch
/// (ThreadScratch), and a steady-state launch allocates nothing. The
/// oracles prove the property on scratch filled with a poison pattern
/// (set_tape_scratch_poison).
class TapeLanes {
 public:
  /// Rows of its own, zero-filled.
  TapeLanes(const Tape& tape, int width);
  /// Rows on the calling thread's scratch, which grows to the largest
  /// block the thread has run and is never cleared. A second TapeLanes
  /// on one thread while the first lives gets rows of its own.
  struct ThreadScratch {};
  TapeLanes(const Tape& tape, int width, ThreadScratch);
  ~TapeLanes();

  TapeLanes(const TapeLanes&) = delete;
  TapeLanes& operator=(const TapeLanes&) = delete;

  /// Row of slot `s`: lane l's value is at [l].
  std::int64_t* slot(int s) { return slots_ + static_cast<std::ptrdiff_t>(s) * width_; }

 private:
  friend class Tape;
  std::size_t elements(const Tape& tape) const;

  int width_;
  bool leased_ = false;  ///< the rows are the thread's scratch
  std::vector<std::int64_t> own_;
  std::int64_t* slots_ = nullptr;
  std::int64_t* stack_ = nullptr;
};

/// While set, every TapeLanes on thread scratch starts with element k of
/// its rows (slot rows, then stack rows) holding `pattern` + k instead of
/// what the thread's previous block left there: a test hook that makes a
/// read before a write show, and show differently on every lane.
/// nullopt (the default) turns it off.
void set_tape_scratch_poison(std::optional<std::int64_t> pattern);

}  // namespace saclo
