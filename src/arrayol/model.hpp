#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "arrayol/ip.hpp"
#include "core/tiler.hpp"

namespace saclo::aol {

/// Raised on malformed ArrayOL models (validation failures).
class ModelError : public Error {
 public:
  using Error::Error;
};

/// A data port: a named multidimensional array boundary of a task.
/// ArrayOL arrays are conceptually infinite-dimensional and single
/// assignment; here every port has a concrete shape (time is folded
/// into the repetition over frames by the runner, as the paper does).
struct Port {
  std::string name;
  Shape shape;
};

using TaskId = std::size_t;

/// One tiler-connected input or output of a repetitive task.
struct TiledPort {
  Port port;          ///< the external array
  Shape pattern;      ///< the pattern shape the inner task consumes/produces
  TilerSpec tiler;    ///< origin / fitting / paving
};

/// Producer instances that neighbouring points of a fused task share,
/// recorded by the fusion that inlined the producer (and kept by a
/// merge). The op computes `instances` producer instances per point;
/// instance a of point r + e_dim is instance a + shift of point r, so
/// `overlap()` of them carry over. Input ports [first_port, first_port +
/// ports) are the producer's, instance a's elements of each at [a * sz,
/// (a + 1) * sz) for sz its pattern elements over `instances`; node
/// outputs[a * k + j] is output j of instance a, for k outputs each.
/// Only the host executor reads this: the op, its text and its cost
/// stay one producer per instance.
struct SharedProducer {
  std::size_t dim = 0;
  std::int64_t instances = 0;
  std::int64_t shift = 0;
  std::size_t first_port = 0;
  std::size_t ports = 0;
  std::vector<std::int32_t> outputs;

  std::int64_t overlap() const { return instances - shift; }
  bool operator==(const SharedProducer&) const = default;
};

/// The central ArrayOL construct: a task repeated over a repetition
/// space, its ports bound to external arrays through tilers (the GILR
/// "locally regular" level).
struct RepetitiveTask {
  std::string name;
  Shape repetition;
  std::vector<TiledPort> inputs;
  std::vector<TiledPort> outputs;
  ElementaryOp op;
  std::vector<SharedProducer> shared;
};

/// A dataflow connection between two array ports by name.
struct Connection {
  std::string from;  ///< producing array
  std::string to;    ///< consuming array (alias)
};

/// A (flat) ArrayOL application model: arrays + repetitive task
/// instances, as produced by flattening the MARTE hierarchy. The
/// "Globally Irregular" level is the dependence graph between tasks
/// induced by shared arrays.
class Model {
 public:
  explicit Model(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Declares an array (a port of the application or an intermediate).
  void add_array(const std::string& name, Shape shape);
  /// Marks an array as an application input / output.
  void mark_input(const std::string& name);
  void mark_output(const std::string& name);

  TaskId add_task(RepetitiveTask task);

  const std::vector<RepetitiveTask>& tasks() const { return tasks_; }
  const std::map<std::string, Shape>& arrays() const { return arrays_; }
  const std::vector<std::string>& inputs() const { return inputs_; }
  const std::vector<std::string>& outputs() const { return outputs_; }
  const Shape& array_shape(const std::string& name) const;

  /// Static semantic checks (the first stage of the transformation
  /// chain): every port array exists, tiler dimensions agree with
  /// array/pattern/repetition shapes, every output tiler is an exact
  /// partition of its array (single assignment!), no array is written
  /// twice, every non-input array is written before read.
  void validate() const;

  /// Dependence-respecting execution order of the task instances
  /// (any such order gives the same result — ArrayOL determinism).
  /// Throws ModelError on cycles.
  std::vector<TaskId> schedule() const;

  /// The producing task of each array (nullopt for inputs).
  std::optional<TaskId> producer_of(const std::string& array) const;

 private:
  std::string name_;
  std::map<std::string, Shape> arrays_;
  std::vector<std::string> inputs_;
  std::vector<std::string> outputs_;
  std::vector<RepetitiveTask> tasks_;
};

/// Executes a model functionally on the host (the reference semantics:
/// gather -> op -> scatter per repetition point, each op lowered to the
/// tape VM and run one lane at a time, in schedule order).
/// Used as ground truth for the OpenCL runner.
std::map<std::string, IntArray> evaluate(const Model& model,
                                         const std::map<std::string, IntArray>& inputs);

}  // namespace saclo::aol
