#include "core/tape.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <new>
#include <utility>

#include "core/fmt.hpp"
#include "core/mapped.hpp"

namespace saclo {

int Tape::arith_ops() const {
  int n = 0;
  for (const TapeInstr& i : code) {
    switch (i.op) {
      case TapeOp::Push:
      case TapeOp::LoadSlot:
      case TapeOp::StoreSlot:
      case TapeOp::LoadArr:
      case TapeOp::LoadLin:
        break;
      default:
        ++n;
    }
  }
  return n;
}

int Tape::array_loads() const {
  int n = 0;
  for (const TapeInstr& i : code) {
    if (i.op == TapeOp::LoadArr || i.op == TapeOp::LoadLin) ++n;
  }
  return n;
}

bool Tape::reads_slot(int slot) const {
  return std::any_of(code.begin(), code.end(), [slot](const TapeInstr& i) {
    return i.op == TapeOp::LoadSlot && i.a == slot;
  });
}

std::int32_t Tape::divisor_id(std::int64_t k) {
  std::size_t id = 0;
  while (id < divisors.size() && divisors[id].divisor() != k) ++id;
  if (id == divisors.size()) divisors.emplace_back(k);
  return static_cast<std::int32_t>(id);
}

namespace {

/// One thread's tape rows: grown to the largest block run on the thread,
/// leased to one TapeLanes at a time. The rows are a mapping of their
/// own, not a malloc block: a long-lived block in the middle of the
/// heap would keep glibc from trimming the frame-sized blocks freed
/// below it (peak RSS on host_exec rose from 104 to 139 MB).
struct LaneScratch {
  MappedArray<std::int64_t> rows;
  bool leased = false;

  void reserve(std::size_t n) {
    if (n <= rows.size()) return;
    rows = {};  // the old rows go before the new ones are mapped
    rows = MappedArray<std::int64_t>(n);
  }
};
thread_local LaneScratch t_scratch;

std::atomic<bool> g_poison_on{false};
std::atomic<std::int64_t> g_poison{0};

}  // namespace

void set_tape_scratch_poison(std::optional<std::int64_t> pattern) {
  g_poison.store(pattern.value_or(0), std::memory_order_relaxed);
  g_poison_on.store(pattern.has_value(), std::memory_order_release);
}

std::size_t TapeLanes::elements(const Tape& tape) const {
  if (width_ < 1 || width_ > kMaxTapeLanes) {
    throw Error(cat("tape: ", width_, " lanes, not 1 to ", kMaxTapeLanes));
  }
  return static_cast<std::size_t>(tape.slot_count) * static_cast<std::size_t>(width_) +
         static_cast<std::size_t>(tape.max_depth) * kMaxTapeLanes;
}

TapeLanes::TapeLanes(const Tape& tape, int width) : width_(width), own_(elements(tape)) {
  slots_ = own_.data();
  stack_ = slots_ + static_cast<std::ptrdiff_t>(tape.slot_count) * width_;
}

TapeLanes::TapeLanes(const Tape& tape, int width, ThreadScratch) : width_(width) {
  const std::size_t n = elements(tape);
  LaneScratch& scratch = t_scratch;
  std::int64_t* rows = nullptr;
  if (scratch.leased) {
    own_.resize(n);
    rows = own_.data();
  } else {
    scratch.reserve(n);
    scratch.leased = leased_ = true;
    rows = scratch.rows.data();
  }
  if (g_poison_on.load(std::memory_order_acquire)) {
    const auto pattern = static_cast<std::uint64_t>(g_poison.load(std::memory_order_relaxed));
    for (std::size_t k = 0; k < n; ++k) rows[k] = static_cast<std::int64_t>(pattern + k);
  }
  slots_ = rows;
  stack_ = slots_ + static_cast<std::ptrdiff_t>(tape.slot_count) * width_;
}

TapeLanes::~TapeLanes() {
  if (leased_) t_scratch.leased = false;
}

namespace {

/// x = f(x, y) over lanes [0, m). Two rows of one TapeLanes never
/// overlap, so the loop needs no overlap check.
template <typename F>
void lanes_binary(std::int64_t* __restrict x, const std::int64_t* __restrict y, int m, F f) {
  for (int l = 0; l < m; ++l) x[l] = f(x[l], y[l]);
}

/// z = rows[0] + ... + rows[N - 1], plus z itself when `Acc`, over
/// lanes [0, m) in one pass.
template <int N, bool Acc>
void lanes_sum(std::int64_t* __restrict z, const std::int64_t* const* rows, int m) {
  for (int l = 0; l < m; ++l) {
    std::int64_t s = Acc ? z[l] : 0;
    for (int k = 0; k < N; ++k) s += rows[k][l];
    z[l] = s;
  }
}

/// z = the sum of `count` slot rows over lanes [0, m), four rows a pass.
void lanes_sum_slots(std::int64_t* z, TapeLanes& lanes, const int* slots, int count, int m) {
  std::array<const std::int64_t*, 4> rows{};
  for (int k = 0; k < count; k += 4) {
    const int n = std::min(count - k, 4);
    for (int j = 0; j < n; ++j) rows[static_cast<std::size_t>(j)] = lanes.slot(slots[k + j]);
    switch (n + (k > 0 ? 4 : 0)) {
      case 1: lanes_sum<1, false>(z, rows.data(), m); break;
      case 2: lanes_sum<2, false>(z, rows.data(), m); break;
      case 3: lanes_sum<3, false>(z, rows.data(), m); break;
      case 4: lanes_sum<4, false>(z, rows.data(), m); break;
      case 5: lanes_sum<1, true>(z, rows.data(), m); break;
      case 6: lanes_sum<2, true>(z, rows.data(), m); break;
      case 7: lanes_sum<3, true>(z, rows.data(), m); break;
      default: lanes_sum<4, true>(z, rows.data(), m); break;
    }
  }
}

template <typename F>
void lanes_unary(std::int64_t* __restrict x, int m, F f) {
  for (int l = 0; l < m; ++l) x[l] = f(x[l]);
}

/// The first error of a block run, kept until the block ends.
struct LaneError {
  enum class Kind { None, DivisionByZero, ModuloByZero, OutOfBounds };
  Kind kind = Kind::None;
  std::int64_t index = 0;
  std::int32_t dim = 0;
  std::int64_t extent = 0;

  [[noreturn]] void raise() const {
    switch (kind) {
      case Kind::DivisionByZero: throw Error("tape: division by zero");
      case Kind::ModuloByZero: throw Error("tape: modulo by zero");
      default:
        throw Error(cat("tape: index ", index, " out of bounds for dim ", dim, " extent ", extent));
    }
  }
};

}  // namespace

void Tape::run(TapeLanes& lanes, int n, std::span<const TapeArray> arrays,
               std::span<const std::int64_t> lin_offsets,
               std::span<const std::int64_t> lin_steps) const {
  using I = std::int64_t;
  I* const stack = lanes.stack_;
  // Stack rows have a stride the compiler knows, so it vectorises the
  // row loops without run-time checks.
  constexpr std::ptrdiff_t stride = kMaxTapeLanes;
  auto row = [stack](int r) { return stack + r * stride; };
  int sp = 0;
  // Lanes [live, n) have failed or follow a failed lane: every later
  // instruction runs on [0, live) only, so a later failure is always on
  // a lower lane and replaces the pending error.
  int live = n;
  LaneError error;
  // x = f(x, y) lane by lane, popping y; x = f(x) on the top row.
  auto binary = [&](auto f) {
    --sp;
    lanes_binary(row(sp - 1), row(sp), live, f);
  };
  auto unary = [&](auto f) { lanes_unary(row(sp - 1), live, f); };
  for (const TapeInstr& ins : code) {
    switch (ins.op) {
      case TapeOp::Push: std::fill_n(row(sp++), live, ins.imm); break;
      case TapeOp::LoadSlot: std::copy_n(lanes.slot(ins.a), live, row(sp++)); break;
      case TapeOp::StoreSlot: std::copy_n(row(--sp), live, lanes.slot(ins.a)); break;
      case TapeOp::SumSlots:
        lanes_sum_slots(row(sp++), lanes, sum_slots.data() + ins.a, ins.b, live);
        break;
      case TapeOp::Add: binary(std::plus<>()); break;
      case TapeOp::Sub: binary(std::minus<>()); break;
      case TapeOp::Mul: binary(std::multiplies<>()); break;
      case TapeOp::Div:
      case TapeOp::Mod: {
        const I* const divisor = row(sp - 1);
        const int zero = static_cast<int>(std::find(divisor, divisor + live, 0) - divisor);
        if (zero < live) {
          error.kind = ins.op == TapeOp::Div ? LaneError::Kind::DivisionByZero
                                             : LaneError::Kind::ModuloByZero;
          live = zero;
        }
        if (ins.op == TapeOp::Div) {
          binary(std::divides<>());
        } else {
          binary(std::modulus<>());
        }
        break;
      }
      // A local copy of the divisor: the stores to the stack rows cannot
      // alias it, so its fields stay in registers across the lanes.
      case TapeOp::DivImm: {
        const ConstDivisor d = divisors[static_cast<std::size_t>(ins.a)];
        unary([d](I x) { return d.div(x); });
        break;
      }
      case TapeOp::ModImm: {
        const ConstDivisor d = divisors[static_cast<std::size_t>(ins.a)];
        unary([d](I x) { return d.mod(x); });
        break;
      }
      case TapeOp::DivModImm: {
        const ConstDivisor d = divisors[static_cast<std::size_t>(ins.a)];
        auto divmod = [&](auto f) {
          unary([d, f](I x) {
            const I q = d.div(x);
            return f(q, x - q * d.divisor());
          });
        };
        switch (static_cast<TapeOp>(ins.b)) {
          case TapeOp::Add: divmod(std::plus<>()); break;
          case TapeOp::Sub: divmod(std::minus<>()); break;
          case TapeOp::Mul: divmod(std::multiplies<>()); break;
          case TapeOp::Min: divmod([](I x, I y) { return std::min(x, y); }); break;
          default: divmod([](I x, I y) { return std::max(x, y); }); break;
        }
        break;
      }
      case TapeOp::Neg: unary(std::negate<>()); break;
      case TapeOp::Not: unary([](I x) -> I { return x == 0; }); break;
      case TapeOp::Abs: unary([](I x) { return x < 0 ? -x : x; }); break;
      case TapeOp::Min: binary([](I x, I y) { return std::min(x, y); }); break;
      case TapeOp::Max: binary([](I x, I y) { return std::max(x, y); }); break;
      case TapeOp::Lt: binary(std::less<>()); break;
      case TapeOp::Le: binary(std::less_equal<>()); break;
      case TapeOp::Gt: binary(std::greater<>()); break;
      case TapeOp::Ge: binary(std::greater_equal<>()); break;
      case TapeOp::Eq: binary(std::equal_to<>()); break;
      case TapeOp::Ne: binary(std::not_equal_to<>()); break;
      case TapeOp::And: binary([](I x, I y) -> I { return x != 0 && y != 0; }); break;
      case TapeOp::Or: binary([](I x, I y) -> I { return x != 0 || y != 0; }); break;
      case TapeOp::LoadArr: {
        std::span<const std::int32_t> data;
        std::span<const std::int64_t> wide;
        const Index* dims;
        const Index* strides;
        if (ins.a < 0) {
          const TapeImmediate& imm = imm_arrays[static_cast<std::size_t>(-ins.a - 1)];
          data = imm.data;
          dims = &imm.dims;
          strides = &imm.strides;
        } else {
          const TapeArray& arr = arrays[static_cast<std::size_t>(ins.a)];
          data = arr.data;
          wide = arr.wide;
          dims = &arr.dims;
          strides = &arr.strides;
        }
        sp -= ins.b;
        // Index component d of lane l is at indices[d * stride + l]; the
        // loaded element replaces component 0.
        I* const indices = row(sp++);
        for (int l = 0; l < live; ++l) {
          I off = 0;
          std::int32_t d = 0;
          for (; d < ins.b; ++d) {
            const I iv = indices[d * stride + l];
            const I extent = (*dims)[static_cast<std::size_t>(d)];
            if (iv < 0 || iv >= extent) {
              error = {LaneError::Kind::OutOfBounds, iv, d, extent};
              break;
            }
            off += iv * (*strides)[static_cast<std::size_t>(d)];
          }
          if (d < ins.b) {
            live = l;
            break;
          }
          const auto at = static_cast<std::size_t>(off);
          indices[l] = wide.empty() ? I{data[at]} : wide[at];
        }
        break;
      }
      case TapeOp::LoadLin: {
        const TapeArray& arr = arrays[static_cast<std::size_t>(ins.a)];
        const auto b = static_cast<std::size_t>(ins.b);
        const I off = lin_offsets[b];
        const I step = lin_steps[b];
        I* const out = row(sp++);
        if (arr.wide.empty()) {
          const std::span<const std::int32_t> data = arr.data;
          for (int l = 0; l < live; ++l) out[l] = data[static_cast<std::size_t>(off + l * step)];
        } else {
          const std::span<const std::int64_t> data = arr.wide;
          for (int l = 0; l < live; ++l) out[l] = data[static_cast<std::size_t>(off + l * step)];
        }
        break;
      }
    }
  }
  if (error.kind != LaneError::Kind::None) error.raise();
}

namespace {

const char* op_name(TapeOp op) {
  switch (op) {
    case TapeOp::Push: return "push";
    case TapeOp::LoadSlot: return "load";
    case TapeOp::StoreSlot: return "store";
    case TapeOp::Add: return "add";
    case TapeOp::Sub: return "sub";
    case TapeOp::Mul: return "mul";
    case TapeOp::Div: return "div";
    case TapeOp::Mod: return "mod";
    case TapeOp::DivImm: return "divi";
    case TapeOp::ModImm: return "modi";
    case TapeOp::SumSlots: return "sums";
    case TapeOp::DivModImm: return "divmodi";
    case TapeOp::Neg: return "neg";
    case TapeOp::Not: return "not";
    case TapeOp::Abs: return "abs";
    case TapeOp::Min: return "min";
    case TapeOp::Max: return "max";
    case TapeOp::Lt: return "lt";
    case TapeOp::Le: return "le";
    case TapeOp::Gt: return "gt";
    case TapeOp::Ge: return "ge";
    case TapeOp::Eq: return "eq";
    case TapeOp::Ne: return "ne";
    case TapeOp::And: return "and";
    case TapeOp::Or: return "or";
    case TapeOp::LoadArr: return "ldarr";
    case TapeOp::LoadLin: return "ldlin";
  }
  return "?";
}

/// The operand stack's effect of one instruction: values popped, then
/// pushed.
std::pair<int, int> stack_effect(const TapeInstr& i) {
  switch (i.op) {
    case TapeOp::Push:
    case TapeOp::LoadSlot:
    case TapeOp::SumSlots:
    case TapeOp::LoadLin: return {0, 1};
    case TapeOp::StoreSlot: return {1, 0};
    case TapeOp::Neg:
    case TapeOp::Not:
    case TapeOp::Abs:
    case TapeOp::DivModImm:
    case TapeOp::DivImm:
    case TapeOp::ModImm: return {1, 1};
    case TapeOp::LoadArr: return {i.b, 1};
    default: return {2, 1};
  }
}

}  // namespace

void Tape::measure_depth() {
  int depth = 0;
  max_depth = 0;
  for (const TapeInstr& i : code) {
    const auto [pops, pushes] = stack_effect(i);
    depth += pushes - pops;
    max_depth = std::max(max_depth, depth);
  }
}

std::string Tape::to_string() const {
  std::string out = cat("max_depth ", max_depth, "\n");
  for (const TapeInstr& i : code) {
    switch (i.op) {
      case TapeOp::Push: out += cat("push ", i.imm, "\n"); break;
      case TapeOp::DivImm:
      case TapeOp::ModImm: out += cat(op_name(i.op), " ", i.imm, "\n"); break;
      case TapeOp::DivModImm:
        out += cat(op_name(i.op), " ", i.imm, " ", op_name(static_cast<TapeOp>(i.b)), "\n");
        break;
      case TapeOp::LoadSlot:
      case TapeOp::StoreSlot: out += cat(op_name(i.op), " s", i.a, "\n"); break;
      case TapeOp::SumSlots:
        out += op_name(i.op);
        for (int k = i.a; k < i.a + i.b; ++k) {
          out += cat(" s", sum_slots[static_cast<std::size_t>(k)]);
        }
        out += "\n";
        break;
      case TapeOp::LoadArr:
        if (i.a < 0) {
          out += cat("ldimm #", -i.a - 1, " rank=", i.b, "\n");
        } else {
          out += cat("ldarr ", array_names[static_cast<std::size_t>(i.a)], " rank=", i.b, "\n");
        }
        break;
      case TapeOp::LoadLin:
        out += cat("ldlin ", array_names[static_cast<std::size_t>(i.a)], " #", i.b, "\n");
        break;
      default: out += cat(op_name(i.op), "\n"); break;
    }
  }
  return out;
}

}  // namespace saclo
