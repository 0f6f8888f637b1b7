#include "arrayol/ip.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "core/fmt.hpp"

namespace saclo::aol {

namespace {

bool is_operator(IpOp op) { return op != IpOp::Lit && op != IpOp::In; }

/// Per node: how many operands and outputs read it.
std::vector<int> use_counts(const ElementaryOp& op) {
  std::vector<int> uses(op.nodes().size(), 0);
  for (const IpNode& n : op.nodes()) {
    if (!is_operator(n.op)) continue;
    ++uses[static_cast<std::size_t>(n.lhs)];
    ++uses[static_cast<std::size_t>(n.rhs)];
  }
  for (const std::int32_t o : op.outputs()) ++uses[static_cast<std::size_t>(o)];
  return uses;
}

}  // namespace

std::int64_t ElementaryOp::flops() const {
  return std::count_if(nodes_.begin(), nodes_.end(),
                       [](const IpNode& n) { return is_operator(n.op); });
}

std::int64_t ElementaryOp::input_extent() const {
  std::int64_t extent = 0;
  for (const IpNode& n : nodes_) {
    if (n.op == IpOp::In) extent = std::max(extent, n.value + 1);
  }
  return extent;
}

IpValue IpBuilder::lit(std::int64_t value) {
  op_.nodes_.push_back({IpOp::Lit, value});
  return {*this, static_cast<std::int32_t>(op_.nodes_.size() - 1)};
}

IpValue IpBuilder::in(std::int64_t element) {
  if (element < 0) throw Error(cat("IP input element ", element, " is negative"));
  const auto e = static_cast<std::size_t>(element);
  if (in_nodes_.size() <= e) in_nodes_.resize(e + 1, -1);
  if (in_nodes_[e] < 0) {
    op_.nodes_.push_back({IpOp::In, element});
    in_nodes_[e] = static_cast<std::int32_t>(op_.nodes_.size() - 1);
  }
  return {*this, in_nodes_[e]};
}

IpValue IpBuilder::apply(IpOp op, IpValue lhs, IpValue rhs) {
  const IpNode& divisor = op_.nodes_[static_cast<std::size_t>(rhs.id())];
  if ((op == IpOp::Div || op == IpOp::Mod) && divisor.op == IpOp::Lit && divisor.value == 0) {
    throw Error("IP divides by the literal 0");
  }
  op_.nodes_.push_back({op, 0, lhs.id(), rhs.id()});
  return {*this, static_cast<std::int32_t>(op_.nodes_.size() - 1)};
}

void IpBuilder::out(IpValue v) { op_.outputs_.push_back(v.id()); }

std::vector<IpValue> IpBuilder::inline_op(const ElementaryOp& op,
                                          const std::function<IpValue(std::int64_t)>& input) {
  std::vector<std::int32_t> id_of(op.nodes().size());
  for (std::size_t i = 0; i < op.nodes().size(); ++i) {
    const IpNode& n = op.nodes()[i];
    switch (n.op) {
      case IpOp::Lit: id_of[i] = lit(n.value).id(); break;
      case IpOp::In: id_of[i] = input(n.value).id(); break;
      default:
        op_.nodes_.push_back({n.op, 0, id_of[static_cast<std::size_t>(n.lhs)],
                              id_of[static_cast<std::size_t>(n.rhs)]});
        id_of[i] = static_cast<std::int32_t>(op_.nodes_.size() - 1);
    }
  }
  std::vector<IpValue> outs;
  outs.reserve(op.outputs().size());
  for (const std::int32_t o : op.outputs()) {
    outs.emplace_back(*this, id_of[static_cast<std::size_t>(o)]);
  }
  return outs;
}

ElementaryOp IpBuilder::finish(std::string name) {
  op_.name = std::move(name);
  in_nodes_.clear();
  return std::move(op_);
}

IpValue operator+(IpValue a, IpValue b) { return a.builder().apply(IpOp::Add, a, b); }
IpValue operator-(IpValue a, IpValue b) { return a.builder().apply(IpOp::Sub, a, b); }
IpValue operator*(IpValue a, IpValue b) { return a.builder().apply(IpOp::Mul, a, b); }
IpValue operator/(IpValue a, IpValue b) { return a.builder().apply(IpOp::Div, a, b); }
IpValue operator%(IpValue a, IpValue b) { return a.builder().apply(IpOp::Mod, a, b); }
IpValue operator+(IpValue a, std::int64_t b) { return a + a.builder().lit(b); }
IpValue operator*(IpValue a, std::int64_t b) { return a * a.builder().lit(b); }
IpValue operator/(IpValue a, std::int64_t b) { return a / a.builder().lit(b); }
IpValue operator%(IpValue a, std::int64_t b) { return a % a.builder().lit(b); }

std::string print_c(const ElementaryOp& op, const std::function<std::string(std::int64_t)>& in,
                    const std::function<std::string(std::int64_t)>& out,
                    const std::string& indent) {
  const std::vector<IpNode>& nodes = op.nodes();
  const std::vector<int> uses = use_counts(op);
  auto named = [&](std::size_t i) { return is_operator(nodes[i].op) && uses[i] != 1; };
  // C precedence: 1 for + -, 2 for * / %, 3 for what needs no parentheses.
  auto precedence = [](IpOp o) {
    switch (o) {
      case IpOp::Add:
      case IpOp::Sub: return 1;
      case IpOp::Mul:
      case IpOp::Div:
      case IpOp::Mod: return 2;
      default: return 3;
    }
  };
  // The definition of node i, parenthesised when it binds looser than
  // `context` requires.
  std::function<std::string(std::size_t, int)> define;
  auto ref = [&](std::size_t i, int context) {
    return named(i) ? cat("t", i) : define(i, context);
  };
  define = [&](std::size_t i, int context) -> std::string {
    const IpNode& n = nodes[i];
    const auto l = static_cast<std::size_t>(n.lhs);
    const auto r = static_cast<std::size_t>(n.rhs);
    switch (n.op) {
      case IpOp::Lit: return n.value < 0 ? cat("(", n.value, ")") : cat(n.value);
      case IpOp::In: return in(n.value);
      case IpOp::Min: return cat("min(", ref(l, 0), ", ", ref(r, 0), ")");
      case IpOp::Max: return cat("max(", ref(l, 0), ", ", ref(r, 0), ")");
      default: break;
    }
    static constexpr const char* kSymbol[] = {"", "", " + ", " - ", " * ", " / ", " % "};
    const int p = precedence(n.op);
    const std::string s = ref(l, p) + kSymbol[static_cast<int>(n.op)] + ref(r, p + 1);
    return p < context ? "(" + s + ")" : s;
  };
  std::string s;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (named(i)) s += cat(indent, "int t", i, " = ", define(i, 0), ";\n");
  }
  for (std::size_t k = 0; k < op.outputs().size(); ++k) {
    s += cat(indent, out(static_cast<std::int64_t>(k)), " = ",
             ref(static_cast<std::size_t>(op.outputs()[k]), 0), ";\n");
  }
  return s;
}

namespace {

/// Lowers an IP to tape code. A root is an operator node that is read
/// more than once, is an output or is kept: it is computed once into a
/// slot. The other operator nodes are computed on the stack inside
/// their one reader's code, and a node nothing live reads is not
/// computed at all.
class IpLowering {
 public:
  IpLowering(const ElementaryOp& op, std::int64_t in_elements,
             std::span<const PinnedValue> pins)
      : op_(op),
        nodes_(op.nodes()),
        in_elements_(in_elements),
        live_(nodes_.size(), false),
        uses_(nodes_.size(), 0),
        slot_(nodes_.size(), -1),
        given_(nodes_.size(), -1),
        kept_(nodes_.size(), -1),
        divmod_(nodes_.size(), false) {
    if (op.input_extent() > in_elements) {
      throw Error(cat("IP ", op.name, " reads input element ", op.input_extent() - 1, " of ",
                      in_elements));
    }
    int slots = static_cast<int>(in_elements);
    for (const PinnedValue& p : pins) {
      const auto i = static_cast<std::size_t>(p.node);
      if (p.node < 0 || i >= nodes_.size() || !is_operator(nodes_[i].op) ||
          p.slot < in_elements) {
        throw Error(cat("IP ", op.name, ": node ", p.node, " cannot be pinned to slot ", p.slot));
      }
      (p.given ? given_ : kept_)[i] = p.slot;
      slots = std::max(slots, p.slot + 1);
    }
    tape_.slot_count = slots;
    // Live nodes: what the outputs and the kept values read, short of
    // the given ones. Operands come before their readers.
    for (const std::int32_t o : op.outputs()) live_[static_cast<std::size_t>(o)] = true;
    for (std::size_t i = 0; i < nodes_.size(); ++i) live_[i] = live_[i] || kept_[i] >= 0;
    for (std::size_t i = nodes_.size(); i-- > 0;) {
      if (!computed(i)) continue;
      live_[static_cast<std::size_t>(nodes_[i].lhs)] = true;
      live_[static_cast<std::size_t>(nodes_[i].rhs)] = true;
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!computed(i)) continue;
      ++uses_[static_cast<std::size_t>(nodes_[i].lhs)];
      ++uses_[static_cast<std::size_t>(nodes_[i].rhs)];
    }
    for (const std::int32_t o : op.outputs()) ++uses_[static_cast<std::size_t>(o)];
    // A node combining x / k and x % k of one x and literal k (the
    // paper's tmp / 6 - tmp % 6) is one DivModImm, which reads x once.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const IpOp op = nodes_[i].op;
      if (!computed(i) || (op != IpOp::Add && op != IpOp::Sub && op != IpOp::Mul &&
                           op != IpOp::Min && op != IpOp::Max)) {
        continue;
      }
      const auto l = static_cast<std::size_t>(nodes_[i].lhs);
      const auto r = static_cast<std::size_t>(nodes_[i].rhs);
      const IpNode& div = nodes_[l];
      const IpNode& mod = nodes_[r];
      if (div.op != IpOp::Div || mod.op != IpOp::Mod || div.lhs != mod.lhs) continue;
      const auto k = static_cast<std::size_t>(div.rhs);
      const auto k2 = static_cast<std::size_t>(mod.rhs);
      if (uses_[l] == 1 && uses_[r] == 1 && !pinned(l) && !pinned(r) && literal_divisor(k) &&
          is_lit(k2, nodes_[k].value)) {
        divmod_[i] = true;
        --uses_[static_cast<std::size_t>(div.lhs)];
      }
    }
  }

  Tape lower() {
    std::vector<bool> is_output(nodes_.size(), false);
    for (const std::int32_t o : op_.outputs()) is_output[static_cast<std::size_t>(o)] = true;
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (computed(i) && (uses_[i] > 1 || is_output[i] || kept_[i] >= 0)) roots.push_back(i);
    }
    // Input slot e holds element e. A slot-resident value (an input or
    // a root) frees its slot after the last root that reads it, unless
    // it is an output or pinned, whose slot must hold it to the end.
    std::vector<std::int64_t> last(nodes_.size(), -1);
    for (std::size_t k = 0; k < roots.size(); ++k) {
      mark_reads(roots[k], true, [&](std::size_t v) { last[v] = static_cast<std::int64_t>(k); });
    }
    std::vector<std::vector<std::size_t>> frees(roots.size());
    std::vector<bool> held(static_cast<std::size_t>(in_elements_), false);
    for (std::size_t v = 0; v < nodes_.size(); ++v) {
      if (nodes_[v].op == IpOp::In && (last[v] >= 0 || is_output[v])) {
        held[static_cast<std::size_t>(nodes_[v].value)] = true;
      }
      if (last[v] >= 0 && !is_output[v] && !pinned(v)) {
        frees[static_cast<std::size_t>(last[v])].push_back(v);
      }
    }
    tape_.input_slots.resize(held.size());
    std::iota(tape_.input_slots.begin(), tape_.input_slots.end(), 0);
    for (int e = static_cast<int>(in_elements_); e-- > 0;) {
      if (!held[static_cast<std::size_t>(e)]) free_.push_back(e);
    }
    // A value both given and kept moves from one pinned slot to the other.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (given_[i] < 0 || kept_[i] < 0) continue;
      tape_.code.push_back({TapeOp::LoadSlot, given_[i]});
      tape_.code.push_back({TapeOp::StoreSlot, kept_[i]});
    }
    for (std::size_t k = 0; k < roots.size(); ++k) {
      emit_definition(roots[k]);
      // Operand slots are free once the value is on the stack; the
      // lowest is taken first.
      for (auto v = frees[k].rbegin(); v != frees[k].rend(); ++v) free_.push_back(slot_of(*v));
      slot_[roots[k]] = kept_[roots[k]] >= 0 ? kept_[roots[k]] : take_slot();
      tape_.code.push_back({TapeOp::StoreSlot, slot_[roots[k]]});
    }
    for (const std::int32_t o : op_.outputs()) {
      const auto i = static_cast<std::size_t>(o);
      if (nodes_[i].op == IpOp::Lit) {
        tape_.code.push_back({TapeOp::Push, 0, 0, nodes_[i].value});
        slot_[i] = take_slot();
        tape_.code.push_back({TapeOp::StoreSlot, slot_[i]});
      }
      tape_.result_slots.push_back(slot_of(i));
    }
    tape_.measure_depth();
    return std::move(tape_);
  }

 private:
  /// Whether the tape computes operator node i (from its operands).
  bool computed(std::size_t i) const {
    return live_[i] && is_operator(nodes_[i].op) && given_[i] < 0;
  }
  bool pinned(std::size_t i) const { return given_[i] >= 0 || kept_[i] >= 0; }
  bool is_root(std::size_t i) const { return slot_[i] >= 0; }
  bool slot_resident(std::size_t i) const {
    return nodes_[i].op == IpOp::In || given_[i] >= 0 || is_root(i);
  }
  int slot_of(std::size_t i) const {
    if (given_[i] >= 0) return given_[i];
    return nodes_[i].op == IpOp::In ? static_cast<int>(nodes_[i].value) : slot_[i];
  }

  int take_slot() {
    if (free_.empty()) return tape_.slot_count++;
    const int s = free_.back();
    free_.pop_back();
    return s;
  }

  /// Calls read(v) for every input or root the code of node i reads:
  /// through the operands of i when `top`, then through the nodes
  /// computed inline. Roots are known by their use count here, before
  /// any has a slot.
  template <typename Read>
  void mark_reads(std::size_t i, bool top, Read&& read) const {
    const IpNode& n = nodes_[i];
    if (n.op == IpOp::Lit) return;
    if (n.op == IpOp::In || given_[i] >= 0 || (!top && uses_[i] > 1)) {
      read(i);
      return;
    }
    if (divmod_[i]) {
      mark_reads(static_cast<std::size_t>(nodes_[static_cast<std::size_t>(n.lhs)].lhs), false,
                 read);
      return;
    }
    mark_reads(static_cast<std::size_t>(n.lhs), false, read);
    mark_reads(static_cast<std::size_t>(n.rhs), false, read);
  }

  /// Pushes the value of node i.
  void emit(std::size_t i) {
    if (nodes_[i].op == IpOp::Lit) {
      tape_.code.push_back({TapeOp::Push, 0, 0, nodes_[i].value});
    } else if (slot_resident(i)) {
      tape_.code.push_back({TapeOp::LoadSlot, slot_of(i)});
    } else {
      emit_definition(i);
    }
  }

  bool is_lit(std::size_t i, std::int64_t v) const {
    return nodes_[i].op == IpOp::Lit && nodes_[i].value == v;
  }

  /// Appends the terms of the sum node i computes inline (its operands,
  /// through further inline sums), leaving out literal zeros.
  void sum_terms(std::size_t i, std::vector<std::size_t>& terms) const {
    if (is_lit(i, 0)) return;
    if (nodes_[i].op != IpOp::Add || slot_resident(i) || divmod_[i]) {
      terms.push_back(i);
      return;
    }
    sum_terms(static_cast<std::size_t>(nodes_[i].lhs), terms);
    sum_terms(static_cast<std::size_t>(nodes_[i].rhs), terms);
  }

  /// Whether node i is a literal the tape divides by through its
  /// plan-time reciprocal: not 0 or ±1, and with a magnitude in range.
  bool literal_divisor(std::size_t i) const {
    const std::int64_t k = nodes_[i].value;
    return nodes_[i].op == IpOp::Lit && k != std::numeric_limits<std::int64_t>::min() &&
           (k < -1 || k > 1);
  }

  /// Pushes the value of operator node i, computed from its operands.
  void emit_definition(std::size_t i) {
    const IpNode& n = nodes_[i];
    const auto l = static_cast<std::size_t>(n.lhs);
    const auto r = static_cast<std::size_t>(n.rhs);
    static constexpr TapeOp kOp[] = {TapeOp::Push, TapeOp::Push, TapeOp::Add, TapeOp::Sub,
                                     TapeOp::Mul, TapeOp::Div, TapeOp::Mod, TapeOp::Min,
                                     TapeOp::Max};
    if (divmod_[i]) {
      const std::int64_t k = nodes_[static_cast<std::size_t>(nodes_[l].rhs)].value;
      emit(static_cast<std::size_t>(nodes_[l].lhs));
      tape_.code.push_back({TapeOp::DivModImm, tape_.divisor_id(k),
                            static_cast<std::int32_t>(kOp[static_cast<int>(n.op)]), k});
      return;
    }
    if (n.op == IpOp::Add) {
      // A sum adds its slot-resident terms straight from their rows,
      // four a pass; 0 + x is x.
      std::vector<std::size_t> terms;
      sum_terms(l, terms);
      sum_terms(r, terms);
      std::vector<int> slots;
      std::size_t pushed = 0;
      for (const std::size_t t : terms) {
        if (slot_resident(t)) {
          slots.push_back(slot_of(t));
          continue;
        }
        emit(t);
        if (pushed++ > 0) tape_.code.push_back({TapeOp::Add});
      }
      if (!slots.empty()) {
        const auto first = static_cast<std::int32_t>(tape_.sum_slots.size());
        tape_.code.push_back({TapeOp::SumSlots, first, static_cast<std::int32_t>(slots.size())});
        tape_.sum_slots.insert(tape_.sum_slots.end(), slots.begin(), slots.end());
        if (pushed > 0) tape_.code.push_back({TapeOp::Add});
      } else if (pushed == 0) {
        tape_.code.push_back({TapeOp::Push});  // 0 + 0
      }
      return;
    }
    if ((n.op == IpOp::Div || n.op == IpOp::Mod) && literal_divisor(r)) {
      const std::int64_t k = nodes_[r].value;
      emit(l);
      tape_.code.push_back(
          {n.op == IpOp::Div ? TapeOp::DivImm : TapeOp::ModImm, tape_.divisor_id(k), 0, k});
      return;
    }
    emit(l);
    emit(r);
    tape_.code.push_back({kOp[static_cast<int>(n.op)]});
  }

  const ElementaryOp& op_;
  const std::vector<IpNode>& nodes_;
  std::int64_t in_elements_;
  std::vector<bool> live_;  ///< per node: read by an output or a kept value
  std::vector<int> uses_;   ///< per node: reads by computed nodes and outputs
  std::vector<int> slot_;   ///< per root: its slot once computed, else -1
  std::vector<int> given_;  ///< per node: its given slot, else -1
  std::vector<int> kept_;   ///< per node: its kept slot, else -1
  std::vector<bool> divmod_;  ///< per node: computed from one DivModImm
  std::vector<int> free_;  ///< slots whose values nothing reads any more
  Tape tape_;
};

}  // namespace

Tape lower_to_tape(const ElementaryOp& op, std::int64_t in_elements,
                   std::span<const PinnedValue> pinned) {
  return IpLowering(op, in_elements, pinned).lower();
}

}  // namespace saclo::aol
