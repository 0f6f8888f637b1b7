#include "gaspard/chain.hpp"

#include <algorithm>
#include <array>
#include <cctype>

#include "core/fmt.hpp"
#include "core/scope_exit.hpp"
#include "opt/cost.hpp"

namespace saclo::gaspard {

using aol::Model;
using aol::RepetitiveTask;
using aol::TiledPort;

namespace {

PortAddressing make_addressing(const TiledPort& tp, const Shape& array_shape,
                               const Shape& repetition) {
  PortAddressing pa;
  pa.array_rank = array_shape.rank();
  pa.rep_rank = repetition.rank();
  if (pa.array_rank > kMaxRank || pa.rep_rank > kMaxRank) {
    throw ChainError("arrays of rank > 4 are not supported by the OpenCL generator");
  }
  const Index strides = array_shape.strides();
  for (std::size_t d = 0; d < pa.array_rank; ++d) {
    pa.origin[d] = tp.tiler.origin[d];
    pa.array_dims[d] = array_shape[d];
    pa.array_strides[d] = strides[d];
    for (std::size_t r = 0; r < pa.rep_rank; ++r) {
      pa.paving[d * kMaxRank + r] = tp.tiler.paving.at(d, r);
    }
  }
  for_each_index(tp.pattern, [&](const Index& pat) {
    const Index f = tp.tiler.fitting.mv(pat);
    std::array<std::int64_t, kMaxRank> off{};
    std::int64_t linear = 0;
    for (std::size_t d = 0; d < pa.array_rank; ++d) {
      off[d] = f[d];
      linear += f[d] * pa.array_strides[d];
      pa.fit_min[d] = pa.fit_offsets.empty() ? f[d] : std::min(pa.fit_min[d], f[d]);
      pa.fit_max[d] = pa.fit_offsets.empty() ? f[d] : std::max(pa.fit_max[d], f[d]);
    }
    pa.fit_offsets.push_back(off);
    pa.fit_linear.push_back(linear);
  });
  return pa;
}

/// Calls fn(e, l, offset) for every pattern element e of port `pa` and
/// every lane l of a block of n lanes, where lane l is repetition point
/// `rep` moved l steps along dimension `walk`: `offset` is the element's
/// offset in the array. A lane whose tile lies inside the array in
/// every dimension (the interior) sits at base + l * step + fit_linear[e];
/// only a lane whose tile wraps around (the boundary) takes the tiler's
/// modulo walk. Each bound of the interior test is linear in l, so the
/// interior lanes are one run [lo, hi).
template <typename Fn>
void for_each_block_offset(const PortAddressing& pa, const std::array<std::int64_t, kMaxRank>& rep,
                           std::size_t walk, std::int64_t n, Fn&& fn) {
  std::array<std::int64_t, kMaxRank> ref{};
  std::array<std::int64_t, kMaxRank> move{};
  std::int64_t base = 0;
  std::int64_t step = 0;
  for (std::size_t d = 0; d < pa.array_rank; ++d) {
    std::int64_t v = pa.origin[d];
    for (std::size_t r = 0; r < pa.rep_rank; ++r) v += pa.paving[d * kMaxRank + r] * rep[r];
    ref[d] = v;
    move[d] = pa.rep_rank == 0 ? 0 : pa.paving[d * kMaxRank + walk];
    base += v * pa.array_strides[d];
    step += move[d] * pa.array_strides[d];
  }
  auto interior = [&](std::int64_t l) {
    for (std::size_t d = 0; d < pa.array_rank; ++d) {
      const std::int64_t v = ref[d] + l * move[d];
      if (v + pa.fit_min[d] < 0 || v + pa.fit_max[d] >= pa.array_dims[d]) return false;
    }
    return true;
  };
  std::int64_t lo = 0;
  while (lo < n && !interior(lo)) ++lo;
  std::int64_t hi = n;
  while (hi > lo && !interior(hi - 1)) --hi;
  const auto elems = static_cast<std::int64_t>(pa.fit_linear.size());
  for (std::int64_t e = 0; e < elems; ++e) {
    const std::int64_t at = base + pa.fit_linear[static_cast<std::size_t>(e)];
    for (std::int64_t l = lo; l < hi; ++l) fn(e, l, at + l * step);
  }
  auto boundary = [&](std::int64_t l) {
    for (std::int64_t e = 0; e < elems; ++e) {
      const auto& fit = pa.fit_offsets[static_cast<std::size_t>(e)];
      std::int64_t off = 0;
      for (std::size_t d = 0; d < pa.array_rank; ++d) {
        std::int64_t idx = (ref[d] + l * move[d] + fit[d]) % pa.array_dims[d];
        if (idx < 0) idx += pa.array_dims[d];
        off += idx * pa.array_strides[d];
      }
      fn(e, l, off);
    }
  };
  for (std::int64_t l = 0; l < lo; ++l) boundary(l);
  for (std::int64_t l = hi; l < n; ++l) boundary(l);
}

/// Lanes per block of a task's tape: gpu::kLanes, fewer when its rows
/// would pass 8 Ki elements (64 KiB; the fused paper task's 429 slot
/// rows and 2 stack rows get 18 lanes). Such a block stays in cache.
/// Larger per-thread scratch (12 Ki elements and up) left frame-sized
/// buffers resident through glibc's dynamic mmap threshold: host_exec's
/// peak RSS went from 101 to 182 MB.
int block_lanes(const Tape& tape) {
  constexpr int kBlockElements = 8 * 1024;
  const int slot_elements = kBlockElements - tape.max_depth * kMaxTapeLanes;
  return std::clamp(slot_elements / std::max(tape.slot_count, 1), 1, gpu::kLanes);
}

/// The host walk dimension of a task (gpu::host_walk_dim), measured on
/// its first output's reference point.
std::size_t walk_dim_of(const Model& model, const RepetitiveTask& task) {
  if (task.outputs.empty()) return 0;
  const TiledPort& out = task.outputs[0];
  const Index strides = model.array_shape(out.port.name).strides();
  Index moves(task.repetition.rank(), 0);
  for (std::size_t r = 0; r < moves.size(); ++r) {
    for (std::size_t d = 0; d < strides.size(); ++d) {
      moves[r] += out.tiler.paving.at(d, r) * strides[d];
    }
  }
  return gpu::host_walk_dim(task.repetition.dims(), moves);
}

}  // namespace

std::string c_identifier(const std::string& name) {
  std::string id = name;
  for (char& c : id) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') c = '_';
  }
  if (id.empty() || std::isdigit(static_cast<unsigned char>(id[0]))) return "_" + id;
  return id;
}

std::string emit_tiler_code(const RepetitiveTask& task, const TiledPort& port, bool is_input,
                            const Shape& array_shape) {
  const std::size_t rank = array_shape.rank();
  const std::size_t rep_rank = task.repetition.rank();
  std::string s;
  s += cat("//--- Tiler ", task.name, "::", is_input ? "in" : "out", "_", port.port.name,
           " ---\n");
  s += "{ //start block\n";
  s += cat("  int tl[", std::max<std::size_t>(port.pattern.rank(), 1), "];\n");
  s += cat("  int ref[", rank, "];\n");
  s += cat("  int index[", rank, "];\n");
  // Reference point based on the paving matrix.
  for (std::size_t d = 0; d < rank; ++d) {
    std::string line = cat("  ref[", d, "] = ", port.tiler.origin[d]);
    for (std::size_t r = 0; r < rep_rank; ++r) {
      line += cat(" + ", port.tiler.paving.at(d, r), "*tlIter[", r, "]");
    }
    s += line + ";\n";
  }
  // Pattern filling based on the fitting matrix. Rank-1 patterns keep
  // the paper's single-counter loop; higher ranks (produced by the
  // optimizer's paving changes and fusions) decode a linear counter
  // into per-dimension coordinates, last dimension fastest — the same
  // order the host reference gathers in.
  const std::int64_t pattern_elems = port.pattern.elements();
  const std::string buf_idx = port.pattern.rank() > 1 ? "tl_lin" : "tl[0]";
  if (port.pattern.rank() > 1) {
    s += cat("  for(int tl_lin=0; tl_lin < ", pattern_elems, "; tl_lin++) {\n");
    s += "    int tl_rem = tl_lin;\n";
    for (std::size_t p = port.pattern.rank(); p-- > 1;) {
      s += cat("    tl[", p, "] = tl_rem % ", port.pattern[p], "; tl_rem /= ", port.pattern[p],
               ";\n");
    }
    s += "    tl[0] = tl_rem;\n";
  } else {
    s += cat("  for(tl[0]=0; tl[0] < ", pattern_elems, "; tl[0]++) {\n");
  }
  for (std::size_t d = 0; d < rank; ++d) {
    std::string line = cat("    index[", d, "]= (ref[", d, "]");
    for (std::size_t p = 0; p < port.pattern.rank(); ++p) {
      line += cat(" + ", port.tiler.fitting.at(d, p), "*tl[", p, "]");
    }
    // Origins, pavings and fittings may be negative: C's % truncates,
    // so a negative remainder moves up by one extent (a floor-mod).
    s += line + cat(") % ", array_shape[d], ";\n");
    s += cat("    if (index[", d, "] < 0) index[", d, "] += ", array_shape[d], ";\n");
  }
  std::string addr;
  const Index strides = array_shape.strides();
  for (std::size_t d = 0; d < rank; ++d) {
    addr += cat(d ? " + " : "", "index[", d, "] * ", strides[d]);
  }
  const std::string array = c_identifier(port.port.name);
  if (is_input) {
    s += cat("    in_", array, "[", buf_idx, "] = ", array, "_g[", addr, "];\n");
  } else {
    s += cat("    ", array, "_g[", addr, "] = out_", array, "[", buf_idx, "];\n");
  }
  s += "  } //end for\n";
  s += "} // end block\n";
  return s;
}

namespace {

std::string emit_kernel_source_text(const Model& model, const RepetitiveTask& task,
                                    const std::string& kernel_name) {
  std::string s;
  std::vector<std::string> params;
  for (const TiledPort& in : task.inputs) {
    params.push_back("__global const int* " + c_identifier(in.port.name) + "_g");
  }
  for (const TiledPort& out : task.outputs) {
    params.push_back("__global int* " + c_identifier(out.port.name) + "_g");
  }
  s += "__kernel void " + c_identifier(kernel_name) + "(" + join(params, ", ") + ")\n{\n";
  s += "  int iGID = get_global_id(0);\n";
  const std::int64_t work_items = task.repetition.elements();
  s += cat("  if (iGID >= ", work_items, ") return;\n");
  // Work-item decode, dimension 0 fastest (Figure 11's iGID % n).
  s += cat("  int tlIter[", task.repetition.rank(), "];\n");
  std::string rest = "iGID";
  for (std::size_t d = 0; d < task.repetition.rank(); ++d) {
    s += cat("  tlIter[", d, "] = ", rest, " % ", task.repetition[d], ";\n");
    if (d + 1 < task.repetition.rank()) {
      s += cat("  int rem", d, " = ", rest, " / ", task.repetition[d], ";\n");
      rest = cat("rem", d);
    }
  }
  // Private-memory pattern buffers + input tilers.
  for (const TiledPort& in : task.inputs) {
    s += cat("  int in_", c_identifier(in.port.name), "[", in.pattern.elements(), "];\n");
  }
  for (const TiledPort& out : task.outputs) {
    s += cat("  int out_", c_identifier(out.port.name), "[", out.pattern.elements(), "];\n");
  }
  for (const TiledPort& in : task.inputs) {
    s += emit_tiler_code(task, in, /*is_input=*/true, model.array_shape(in.port.name));
  }
  // The IP body: element e of the concatenated ports is element k of
  // one port's private buffer.
  auto element_of = [](const std::vector<TiledPort>& ports, const char* prefix) {
    return [&ports, prefix](std::int64_t e) {
      std::size_t p = 0;
      while (e >= ports[p].pattern.elements()) e -= ports[p++].pattern.elements();
      return cat(prefix, c_identifier(ports[p].port.name), "[", e, "]");
    };
  };
  s += "  { // IP: " + task.op.name + "\n";
  s += aol::print_c(task.op, element_of(task.inputs, "in_"), element_of(task.outputs, "out_"),
                    "    ");
  s += "  }\n";
  for (const TiledPort& out : task.outputs) {
    s += emit_tiler_code(task, out, /*is_input=*/false, model.array_shape(out.port.name));
  }
  s += "}\n";
  return s;
}

}  // namespace

OpenClApplication OpenClApplication::build(Model model) {
  OpenClApplication app;
  model.validate();
  app.schedule_ = model.schedule();

  // Buffer allocation plan.
  for (const auto& [name, shape] : model.arrays()) {
    BufferPlan plan;
    plan.array = name;
    plan.shape = shape;
    plan.is_input =
        std::find(model.inputs().begin(), model.inputs().end(), name) != model.inputs().end();
    plan.is_output =
        std::find(model.outputs().begin(), model.outputs().end(), name) != model.outputs().end();
    app.buffers_.push_back(std::move(plan));
  }

  // Code generation: one kernel per repetitive task.
  std::size_t ports = 0;
  for (aol::TaskId t : app.schedule_) {
    const RepetitiveTask& task = model.tasks()[t];
    TaskKernel k;
    k.task = t;
    k.name = "KRN_" + task.name;
    k.work_items = task.repetition.elements();
    // The optimizer predicts makespans with the same derivation, so the
    // search's cost gate and the simulated timings cannot drift apart.
    k.cost = opt::derive_task_cost(model, task);
    k.walk_dim = walk_dim_of(model, task);
    k.opencl_source = emit_kernel_source_text(model, task, k.name);
    std::int64_t in_total = 0;
    for (const TiledPort& in : task.inputs) in_total += in.pattern.elements();
    k.tape = aol::lower_to_tape(task.op, in_total);
    // The launch's addressing, buffers and block shape.
    auto buffer_of = [&](const TiledPort& port) {
      const auto it = std::find_if(app.buffers_.begin(), app.buffers_.end(),
                                   [&](const BufferPlan& b) { return b.array == port.port.name; });
      if (it == app.buffers_.end()) throw ChainError(cat("no buffer for '", port.port.name, "'"));
      return static_cast<std::size_t>(it - app.buffers_.begin());
    };
    for (const TiledPort& in : task.inputs) {
      k.ports.push_back(make_addressing(in, model.array_shape(in.port.name), task.repetition));
      k.port_buffers.push_back(buffer_of(in));
    }
    k.input_ports = task.inputs.size();
    for (const TiledPort& out : task.outputs) {
      k.ports.push_back(make_addressing(out, model.array_shape(out.port.name), task.repetition));
      k.port_buffers.push_back(buffer_of(out));
    }
    k.rep_rank = task.repetition.rank();
    for (std::size_t d = 0; d < k.rep_rank; ++d) k.rep_dims[d] = task.repetition[d];
    k.lanes = block_lanes(k.tape);
    ports = std::max(ports, k.ports.size());
    app.kernels_.push_back(std::move(k));
  }
  for (std::size_t b = app.buffers_.size(); b-- > 0;) app.free_order_.push_back(b);
  std::sort(app.free_order_.begin(), app.free_order_.end(), [&](std::size_t x, std::size_t y) {
    return app.buffers_[x].array > app.buffers_[y].array;
  });
  app.hazards_.reserve(ports);
  app.port_data_.reserve(ports);
  app.model_ = std::move(model);
  return app;
}

std::string OpenClApplication::opencl_source() const {
  std::string s = cat("// Generated by the saclo GASPARD2-style chain for model '",
                      model_.name(), "'.\n\n");
  for (const TaskKernel& k : kernels_) {
    s += k.opencl_source;
    s += "\n";
  }
  return s;
}

std::map<std::string, IntArray> OpenClApplication::run(
    gpu::opencl::CommandQueue& queue, const std::map<std::string, PixelArray>& inputs,
    bool execute) {
  return run(queue, queue, queue, inputs, execute);
}

namespace {

/// Per-thread row pointers of a block's gather and scatter.
struct BlockRows {
  std::vector<std::int64_t*> in;
  std::vector<const std::int64_t*> out;
};

/// One task kernel's launch: the built kernel and this run's device view
/// of each of its ports. The launch body captures a pointer to it.
struct TaskLaunch {
  const TaskKernel* kernel;
  std::span<const std::span<std::int32_t>> data;  ///< by port
};

/// The task kernel's body over work items [begin, end).
///
/// The tape's rows come from the thread's scratch, leaving the tiler's
/// gather/compute/scatter as the inner loop. The generated code maps
/// iGID to tlIter dimension 0 fastest (Figure 11's iGID % n) — the
/// simulated GPU's mapping. Work items are independent under single
/// assignment, so the host visits them in its own order: ids decode
/// with the walk dimension fastest, once per run along it, and each run
/// goes through gather, IP and scatter a block of items at a time, so
/// consecutive items store next to each other.
void run_task(const TaskLaunch& launch, std::int64_t begin, std::int64_t end) {
  const TaskKernel& k = *launch.kernel;
  const Tape& tape = k.tape;
  const std::size_t walk = k.walk_dim;
  // The gather writes each input element straight into its slot row,
  // and the scatter reads each output from its result slot row.
  TapeLanes rows(tape, k.lanes, TapeLanes::ThreadScratch{});
  thread_local BlockRows block;
  block.in.clear();
  for (const int s : tape.input_slots) block.in.push_back(rows.slot(s));
  block.out.clear();
  for (const int s : tape.result_slots) block.out.push_back(rows.slot(s));
  std::array<std::int64_t, kMaxRank> rep{};
  for (std::int64_t tid = begin; tid < end;) {
    std::int64_t rest = tid;
    for (std::size_t i = 0; i < k.rep_rank; ++i) {
      const std::size_t d = gpu::walk_order(i, walk);
      rep[d] = rest % k.rep_dims[d];
      rest /= k.rep_dims[d];
    }
    const std::int64_t run =
        k.rep_rank == 0 ? end - tid : std::min(end - tid, k.rep_dims[walk] - rep[walk]);
    tid += run;
    for (std::int64_t done = 0; done < run;) {
      const int n = static_cast<int>(std::min<std::int64_t>(run - done, k.lanes));
      std::int64_t* const* in_row = block.in.data();
      for (std::size_t p = 0; p < k.input_ports; ++p) {
        const std::span<std::int32_t> data = launch.data[p];
        for_each_block_offset(k.ports[p], rep, walk, n,
                              [&](std::int64_t e, std::int64_t l, std::int64_t off) {
                                in_row[e][l] = data[static_cast<std::size_t>(off)];
                              });
        in_row += k.ports[p].fit_linear.size();
      }
      tape.run(rows, n, {});
      const std::int64_t* const* out_row = block.out.data();
      for (std::size_t p = k.input_ports; p < k.ports.size(); ++p) {
        const std::span<std::int32_t> data = launch.data[p];
        for_each_block_offset(k.ports[p], rep, walk, n,
                              [&](std::int64_t e, std::int64_t l, std::int64_t off) {
                                data[static_cast<std::size_t>(off)] =
                                    static_cast<std::int32_t>(out_row[e][l]);
                              });
        out_row += k.ports[p].fit_linear.size();
      }
      done += n;
      rep[walk] += n;
    }
  }
}

}  // namespace

std::map<std::string, IntArray> OpenClApplication::run(
    gpu::opencl::CommandQueue& upload, gpu::opencl::CommandQueue& compute,
    gpu::opencl::CommandQueue& download, const std::map<std::string, PixelArray>& inputs,
    bool execute) {
  gpu::VirtualGpu& gpu = compute.gpu();
  gpu::BufferAllocator& allocator = gpu.allocator();
  // However the call ends, the buffers go back in descending name order.
  live_.assign(buffers_.size(), gpu::BufferHandle{});
  const ScopeExit free_buffers([&] {
    for (const std::size_t b : free_order_) {
      if (live_[b].valid()) allocator.free(live_[b]);
      live_[b] = {};
    }
  });
  // Create buffers (int32 frames, as on the paper's device). None is
  // zero-filled: inputs are uploaded whole, Model::validate proves
  // every produced array an exact partition of its task's output
  // tiler, and an array nothing writes is never read.
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    live_[b] = allocator.allocate_for_overwrite(buffers_[b].shape.elements() * 4);
  }
  // Upload inputs.
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    const BufferPlan& plan = buffers_[b];
    if (!plan.is_input) continue;
    if (execute) {
      auto it = inputs.find(plan.array);
      if (it == inputs.end()) throw ChainError(cat("missing input '", plan.array, "'"));
      upload.enqueue_write_frame(live_[b], it->second);
    } else {
      upload.account_write(live_[b]);
    }
  }

  // Launch every task kernel in schedule order.
  for (const TaskKernel& k : kernels_) {
    hazards_.clear();
    port_data_.clear();
    for (const std::size_t b : k.port_buffers) {
      hazards_.push_back(live_[b]);
      port_data_.push_back(gpu.memory().view<std::int32_t>(live_[b]));
    }
    const TaskLaunch task{&k, port_data_};
    gpu::KernelLaunch launch;
    launch.name = k.name;
    launch.threads = k.work_items;
    launch.cost = k.cost;
    launch.reads = std::span<const gpu::BufferHandle>(hazards_).first(k.input_ports);
    launch.writes = std::span<const gpu::BufferHandle>(hazards_).subspan(k.input_ports);
    launch.body = [&task](std::int64_t begin, std::int64_t end) { run_task(task, begin, end); };
    compute.enqueue_ndrange(launch, execute);
  }

  // Read outputs back (a timing-only run builds no host arrays).
  std::map<std::string, IntArray> results;
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    const BufferPlan& plan = buffers_[b];
    if (!plan.is_output) continue;
    if (execute) {
      results.emplace(plan.array, download.enqueue_read_frame(live_[b], plan.shape));
    } else {
      download.account_read(live_[b]);
    }
  }
  return results;
}

}  // namespace saclo::gaspard
