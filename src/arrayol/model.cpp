#include "arrayol/model.hpp"

#include <algorithm>
#include <set>

#include "core/fmt.hpp"

namespace saclo::aol {

void Model::add_array(const std::string& name, Shape shape) {
  auto [it, inserted] = arrays_.emplace(name, std::move(shape));
  if (!inserted) throw ModelError(cat("array '", name, "' declared twice"));
}

void Model::mark_input(const std::string& name) {
  if (!arrays_.count(name)) throw ModelError(cat("unknown input array '", name, "'"));
  inputs_.push_back(name);
}

void Model::mark_output(const std::string& name) {
  if (!arrays_.count(name)) throw ModelError(cat("unknown output array '", name, "'"));
  outputs_.push_back(name);
}

TaskId Model::add_task(RepetitiveTask task) {
  tasks_.push_back(std::move(task));
  return tasks_.size() - 1;
}

const Shape& Model::array_shape(const std::string& name) const {
  auto it = arrays_.find(name);
  if (it == arrays_.end()) throw ModelError(cat("unknown array '", name, "'"));
  return it->second;
}

std::optional<TaskId> Model::producer_of(const std::string& array) const {
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    for (const TiledPort& out : tasks_[t].outputs) {
      if (out.port.name == array) return t;
    }
  }
  return std::nullopt;
}

void Model::validate() const {
  std::set<std::string> written(inputs_.begin(), inputs_.end());
  std::set<std::string> produced;
  for (const RepetitiveTask& task : tasks_) {
    for (const TiledPort& tp : task.inputs) {
      const Shape& arr = array_shape(tp.port.name);
      if (arr != tp.port.shape) {
        throw ModelError(cat("task '", task.name, "' input port '", tp.port.name,
                             "' has shape ", tp.port.shape.to_string(), " but array is ",
                             arr.to_string()));
      }
      tp.tiler.validate(arr, tp.pattern, task.repetition);
    }
    for (const TiledPort& tp : task.outputs) {
      const Shape& arr = array_shape(tp.port.name);
      if (arr != tp.port.shape) {
        throw ModelError(cat("task '", task.name, "' output port '", tp.port.name,
                             "' has shape ", tp.port.shape.to_string(), " but array is ",
                             arr.to_string()));
      }
      tp.tiler.validate(arr, tp.pattern, task.repetition);
      // Single assignment: every element written exactly once.
      if (!is_exact_partition(tp.tiler, arr, tp.pattern, task.repetition)) {
        throw ModelError(cat("output tiler of task '", task.name, "' on array '", tp.port.name,
                             "' is not an exact partition — ArrayOL single assignment would be "
                             "violated"));
      }
      if (!produced.insert(tp.port.name).second) {
        throw ModelError(cat("array '", tp.port.name, "' is written by more than one task"));
      }
      if (std::find(inputs_.begin(), inputs_.end(), tp.port.name) != inputs_.end()) {
        throw ModelError(cat("input array '", tp.port.name, "' is written by task '", task.name,
                             "'"));
      }
    }
    std::int64_t in_total = 0;
    for (const TiledPort& tp : task.inputs) in_total += tp.pattern.elements();
    std::int64_t out_total = 0;
    for (const TiledPort& tp : task.outputs) out_total += tp.pattern.elements();
    if (task.op.input_extent() > in_total) {
      throw ModelError(cat("task '", task.name, "': its IP reads input element ",
                           task.op.input_extent() - 1, " but its ports gather ", in_total));
    }
    if (static_cast<std::int64_t>(task.op.outputs().size()) != out_total) {
      throw ModelError(cat("task '", task.name, "': its IP writes ", task.op.outputs().size(),
                           " elements but its output ports hold ", out_total));
    }
    for (const SharedProducer& s : task.shared) {
      bool ok = s.dim < task.repetition.rank() && s.shift > 0 && s.shift < s.instances &&
                s.ports > 0 && s.first_port + s.ports <= task.inputs.size() &&
                !s.outputs.empty() &&
                static_cast<std::int64_t>(s.outputs.size()) % s.instances == 0;
      for (std::size_t p = s.first_port; ok && p < s.first_port + s.ports; ++p) {
        ok = task.inputs[p].pattern.elements() % s.instances == 0;
      }
      for (const std::int32_t node : s.outputs) {
        ok = ok && node >= 0 && static_cast<std::size_t>(node) < task.op.nodes().size();
      }
      if (!ok) {
        throw ModelError(cat("task '", task.name, "': malformed shared producer along dim ",
                             s.dim));
      }
    }
  }
  for (const std::string& out : outputs_) {
    if (!produced.count(out) && !written.count(out)) {
      throw ModelError(cat("output array '", out, "' is never produced"));
    }
  }
  // Every consumed array must be an input or produced by some task.
  for (const RepetitiveTask& task : tasks_) {
    for (const TiledPort& tp : task.inputs) {
      if (!produced.count(tp.port.name) && !written.count(tp.port.name)) {
        throw ModelError(cat("task '", task.name, "' reads array '", tp.port.name,
                             "' which is neither an input nor produced"));
      }
    }
  }
}

std::vector<TaskId> Model::schedule() const {
  // Topological order over the array-mediated dependences: only true
  // data dependences constrain the order (ArrayOL principle).
  std::vector<TaskId> order;
  std::vector<bool> done(tasks_.size(), false);
  std::set<std::string> available(inputs_.begin(), inputs_.end());
  bool progress = true;
  while (order.size() < tasks_.size() && progress) {
    progress = false;
    for (std::size_t t = 0; t < tasks_.size(); ++t) {
      if (done[t]) continue;
      bool ready = true;
      for (const TiledPort& in : tasks_[t].inputs) {
        if (!available.count(in.port.name)) ready = false;
      }
      if (!ready) continue;
      done[t] = true;
      order.push_back(t);
      for (const TiledPort& out : tasks_[t].outputs) available.insert(out.port.name);
      progress = true;
    }
  }
  if (order.size() != tasks_.size()) {
    throw ModelError(cat("model '", name_, "' has a dependence cycle or unproduced arrays"));
  }
  return order;
}

std::map<std::string, IntArray> evaluate(const Model& model,
                                         const std::map<std::string, IntArray>& inputs) {
  std::map<std::string, IntArray> env;
  for (const std::string& in : model.inputs()) {
    auto it = inputs.find(in);
    if (it == inputs.end()) throw ModelError(cat("missing input array '", in, "'"));
    if (it->second.shape() != model.array_shape(in)) {
      throw ModelError(cat("input '", in, "' has shape ", it->second.shape().to_string(),
                           ", model expects ", model.array_shape(in).to_string()));
    }
    env.emplace(in, it->second);
  }
  for (TaskId t : model.schedule()) {
    const RepetitiveTask& task = model.tasks()[t];
    // Allocate outputs.
    for (const TiledPort& out : task.outputs) {
      env.emplace(out.port.name, IntArray(out.port.shape));
    }
    std::int64_t in_total = 0;
    for (const TiledPort& in : task.inputs) in_total += in.pattern.elements();
    const Tape tape = lower_to_tape(task.op, in_total);
    TapeLanes lanes(tape, 1);

    for_each_index(task.repetition, [&](const Index& rep) {
      std::size_t pos = 0;
      for (const TiledPort& in : task.inputs) {
        const IntArray& arr = env.at(in.port.name);
        for_each_index(in.pattern, [&](const Index& pat) {
          *lanes.slot(tape.input_slots[pos++]) =
              arr.at(in.tiler.element_index(arr.shape(), rep, pat));
        });
      }
      tape.run(lanes, 1, {});
      pos = 0;
      for (const TiledPort& out : task.outputs) {
        IntArray& arr = env.at(out.port.name);
        for_each_index(out.pattern, [&](const Index& pat) {
          arr.at(out.tiler.element_index(arr.shape(), rep, pat)) =
              *lanes.slot(tape.result_slots[pos++]);
        });
      }
    });
  }
  return env;
}

}  // namespace saclo::aol
