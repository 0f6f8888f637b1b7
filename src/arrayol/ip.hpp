#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/tape.hpp"

namespace saclo::aol {

/// The operators of an IP expression: C's integer `+ - * / %`, `min`
/// and `max`, over integer literals and input elements.
enum class IpOp : std::uint8_t { Lit, In, Add, Sub, Mul, Div, Mod, Min, Max };

/// One node of an IP: a literal, an input element, or an operator over
/// two earlier nodes.
struct IpNode {
  IpOp op = IpOp::Lit;
  std::int64_t value = 0;  ///< Lit: the literal; In: the input element
  std::int32_t lhs = -1;   ///< operator nodes: the operands' node ids
  std::int32_t rhs = -1;

  bool operator==(const IpNode&) const = default;
};

/// The computation of an elementary task — GASPARD2's "IP"
/// (intellectual property) block — as one straight-line expression.
/// Input element e is element e of the task's concatenated input
/// patterns (in port order); output element k, likewise of its output
/// patterns, is the value of node outputs()[k]. Nodes come in
/// definition order, operands first; a node read more than once is a
/// let-bound temporary.
///
/// Everything else derives from the expression, so nothing can drift
/// from it: the OpenCL body (print_c), the work per invocation
/// (flops) and the lane-major host computation (lower_to_tape). An op
/// is built with IpBuilder; the optimizer composes ops by substitution
/// (IpBuilder::inline_op).
class ElementaryOp {
 public:
  std::string name;

  const std::vector<IpNode>& nodes() const { return nodes_; }
  const std::vector<std::int32_t>& outputs() const { return outputs_; }

  /// Operator nodes, read or not: the arithmetic of one invocation.
  std::int64_t flops() const;
  /// One past the largest input element the expression reads.
  std::int64_t input_extent() const;

  bool operator==(const ElementaryOp&) const = default;

 private:
  friend class IpBuilder;
  std::vector<IpNode> nodes_;
  std::vector<std::int32_t> outputs_;
};

class IpBuilder;

/// A node of an op under construction, combined with the operators
/// below into new nodes of the same builder.
class IpValue {
 public:
  IpValue(IpBuilder& builder, std::int32_t id) : builder_(&builder), id_(id) {}

  IpBuilder& builder() const { return *builder_; }
  std::int32_t id() const { return id_; }

 private:
  IpBuilder* builder_;
  std::int32_t id_;
};

/// Builds an ElementaryOp node by node.
class IpBuilder {
 public:
  IpValue lit(std::int64_t value);
  /// Input element `element`; one node per element however often read.
  IpValue in(std::int64_t element);
  /// Throws Error on a division or modulo by the literal 0.
  IpValue apply(IpOp op, IpValue lhs, IpValue rhs);
  /// Appends the next output element.
  void out(IpValue v);

  /// Substitution: appends a copy of `op`'s nodes in which input element
  /// e reads `input(e)`, and returns the values of its outputs in order.
  /// Every node is copied, read or not, so the flops add up.
  std::vector<IpValue> inline_op(const ElementaryOp& op,
                                 const std::function<IpValue(std::int64_t)>& input);

  ElementaryOp finish(std::string name);

 private:
  ElementaryOp op_;
  std::vector<std::int32_t> in_nodes_;  ///< input element -> its In node, or -1
};

IpValue operator+(IpValue a, IpValue b);
IpValue operator-(IpValue a, IpValue b);
IpValue operator*(IpValue a, IpValue b);
IpValue operator/(IpValue a, IpValue b);
IpValue operator%(IpValue a, IpValue b);
IpValue operator+(IpValue a, std::int64_t b);
IpValue operator*(IpValue a, std::int64_t b);
IpValue operator/(IpValue a, std::int64_t b);
IpValue operator%(IpValue a, std::int64_t b);

/// The C statements of `op`'s body, one per line after `indent`. Every
/// operator node not read exactly once becomes `int t<id> = ...;`, the
/// others inline into their one reader; output k is assigned as
/// `<out(k)> = ...;`. `in(e)` names input element e.
std::string print_c(const ElementaryOp& op, const std::function<std::string(std::int64_t)>& in,
                    const std::function<std::string(std::int64_t)>& out,
                    const std::string& indent);

/// An operator node whose value a tape keeps in a slot the caller
/// chose, at or past the input slots. A `given` value the caller fills
/// in before the run, and the tape reads it there instead of computing
/// it (nor what only it reads); otherwise the tape computes the value
/// and leaves it in the slot. Either way no temporary takes the slot.
struct PinnedValue {
  std::int32_t node = 0;
  int slot = 0;
  bool given = false;
};

/// Compiles `op` to the lane-major tape VM. The caller fills input slot
/// e with input element e of a block of instances (`in_elements` slots,
/// read or not) and reads output k from result slot k after the run.
/// Temporaries take the slots of values no longer read, inputs
/// included; a division or modulo by a literal goes through its
/// plan-time reciprocal, and a sum reads its slot operands in place.
/// Nothing reachable only through dead or given nodes is computed.
Tape lower_to_tape(const ElementaryOp& op, std::int64_t in_elements,
                   std::span<const PinnedValue> pinned = {});

}  // namespace saclo::aol
