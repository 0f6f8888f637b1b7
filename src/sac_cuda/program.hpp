#pragma once

#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gpu/profiler.hpp"
#include "gpu/runtime_cuda.hpp"
#include "sac/pipeline.hpp"
#include "sac_cuda/tape.hpp"

namespace saclo::sac_cuda {

/// Raised when planning or running a CUDA program fails.
class BackendError : public Error {
 public:
  using Error::Error;
};

/// One outlined CUDA kernel: exactly one with-loop generator, as in
/// Section VII of the paper ("we outline each WITH-loop generator as a
/// kernel function").
struct GenKernel {
  std::string name;
  sac::affine::Lattice lattice;  ///< iteration space (iv = lb + step*t)
  Shape cell;
  KernelTape tape;
  gpu::KernelCost cost;
  std::int64_t threads = 0;
  /// The lattice dimension the host body walks fastest
  /// (gpu::host_walk_dim over the output's element moves). The emitted
  /// CUDA keeps dimension 0 fastest: the id-to-point mapping is a
  /// per-target decision.
  std::size_t walk_dim = 0;
  /// The flattened generator (cell decomposed into scalar element
  /// expressions) — kept for the CUDA-C text emitter.
  sac::Generator source;

  // The launch, bound at plan time (DESIGN decision 20).
  /// Variable id of each tape array, in tape id order.
  std::vector<std::size_t> array_ids;
  /// The tape's arrays: dims and strides from the plan; each run binds
  /// `data` to the device buffers before it launches the kernel.
  std::vector<TapeArray> arrays;
  /// Index slots the tape still reads (proven loads no longer do), with
  /// their lattice dimension.
  std::vector<std::pair<int, std::size_t>> index_fills;
  /// Per proven load, its offset's move per step along walk_dim.
  std::vector<std::int64_t> lin_steps;
  /// The strides of the with-loop's result array.
  Index out_strides;
};

/// All kernels of one with-loop assignment, plus the data-transfer
/// metadata around them.
struct KernelGroup {
  std::string target;
  Shape frame;
  Shape full;  ///< frame ++ cell
  /// False only when the generators provably write every frame element
  /// (in-frame, pairwise-disjoint lattices whose sizes sum to the
  /// frame), or for modarray, whose copy writes every element.
  bool needs_default_fill = false;
  std::int64_t default_value = 0;
  /// modarray with-loops start from a device-to-device copy of the
  /// target array (sac2c's scheme for partially covering generators).
  bool is_modarray = false;
  std::string modarray_source;
  std::vector<std::string> inputs;  ///< free arrays the kernels read
  std::vector<GenKernel> kernels;

  // Variable ids and profiler rows, bound at plan time.
  std::size_t target_id = 0;
  std::size_t modarray_source_id = 0;
  std::vector<std::size_t> input_ids;
  std::string copy_row;  ///< `<target>_copy`
  std::string init_row;  ///< `<target>_init`
};

/// A perfect `for` nest with literal bounds whose innermost body stores
/// scalar arithmetic over the loop variables and proven loads into
/// int arrays it does not read (DESIGN decision 19): the paper's
/// generic output tiler after specialisation.
struct HostNest {
  /// The loop variables as lattice dimensions, outermost first.
  sac::affine::Lattice lattice;
  /// The store targets, one per element store in body order.
  std::vector<std::string> targets;
  /// Results per store: its value, then its index components.
  KernelTape tape;
  /// The dimension the lanes follow: the innermost loop, so colliding
  /// stores keep the interpreter's last-writer-wins, or, for one store
  /// proven in bounds and injective over the lattice, the longest.
  std::size_t walk_dim = 0;

  // The nest, bound at plan time (DESIGN decision 20).
  /// One element store: where its value and index components are.
  struct Store {
    std::size_t target = 0;  ///< variable id
    Shape shape;
    Index strides;
    int value_slot = 0;
    std::vector<int> index_slots;
    std::span<std::int64_t> data;  ///< bound by each run
  };
  std::vector<Store> stores;
  /// Variable id of each tape array; the arrays' dims and strides, each
  /// run binding `wide` to the host values.
  std::vector<std::size_t> array_ids;
  std::vector<TapeArray> arrays;
  std::vector<std::size_t> fills;  ///< lattice dimensions whose index slot the tape reads
  std::vector<std::int64_t> lin_steps;  ///< per proven load, its move along walk_dim
  std::vector<std::size_t> loop_var_ids;  ///< by lattice dimension
};

/// One statement of a compiled host step: a whole-array copy
/// `dst = src;` or a loop nest.
struct HostOp {
  std::size_t stmt = 0;  ///< into the compiled body
  std::string dst;       ///< copies only
  std::string src;       ///< copies only
  std::size_t dst_id = 0;
  std::size_t src_id = 0;
  /// The copy hands src's storage over: src is no parameter and no
  /// later statement reads it.
  bool move = false;
  std::optional<HostNest> nest;
};

/// Statements that stay on the host (for-loop tilers, scalar glue).
/// Any device-resident array they read is copied back first — the
/// `device2host` penalty of the paper's generic output tiler.
struct HostBlock {
  std::vector<std::size_t> stmt_indices;  ///< into the compiled body
  std::vector<std::string> array_reads;
  double static_ops = -1.0;  ///< < 0: measured on first executed run
  /// The block compiled at plan time, when every statement is a copy
  /// or a loop nest; the interpreter runs it otherwise.
  std::vector<HostOp> ops;
  /// Why the interpreter runs the block; empty when `ops` do.
  std::string interpreted_because;

  // Bound at plan time.
  std::vector<std::size_t> read_ids;   ///< of array_reads
  std::vector<std::size_t> write_ids;  ///< every name the block (re)binds
  std::string row;                     ///< `<origin>_host`

  bool compiled() const { return interpreted_because.empty(); }
};

struct Step {
  enum class Kind { Kernels, Host };
  Kind kind = Kind::Host;
  /// Which call of the entry function the step came from: the
  /// sac::Stmt::origin its statements share, else (none, or a host
  /// block mixing several) the function's own name. A host block's
  /// profiler row is `<origin>_host`.
  std::string origin;
  KernelGroup group;
  HostBlock host;
};

/// A mini-SaC function compiled to (simulated) CUDA: the identification
/// of CUDA-with-loops, transfer insertion and kernel outlining of the
/// paper's Section VII.
class CudaProgram {
 public:
  /// Plans a compiled function (deep-copied). Ineligible with-loops
  /// silently fall back to host steps (exactly what sac2c does with
  /// for-loops).
  static CudaProgram plan(const sac::CompiledFunction& fn);

  const sac::CompiledFunction& compiled() const { return fn_; }
  const std::vector<Step>& steps() const { return steps_; }
  const std::map<std::string, Shape>& shapes() const { return shapes_; }
  const std::string& return_var() const { return return_var_; }

  /// Number of generator kernels (the paper's per-filter kernel
  /// counts), of the steps from `origin` when one is given.
  int kernel_count(const std::string& origin = {}) const;
  /// The profiler rows a run records for the steps from `origin`: their
  /// generator kernels, modarray copies, default fills and host blocks.
  std::set<std::string> rows_of(const std::string& origin) const;
  /// Number of host-executed statement blocks.
  int host_block_count() const;
  /// Number of those the plan compiled into loop nests and copies.
  int compiled_host_block_count() const;

  /// The CUDA C translation unit a real backend would emit.
  std::string cuda_source() const;

  /// Per-invocation options. `repetitions` > 1 is a benchmark loop
  /// over device-resident data (the paper's Figure 9): the params
  /// upload once, the steps repeat over the same device values (only
  /// the first repetition executes), and the result is fetched once.
  ///
  /// `streams`, when set, issues the invocation asynchronously: param
  /// uploads on streams->h2d, kernels (plus the generic tiler's
  /// in-line device2host/host2device traffic) on streams->compute, the
  /// result fetch on streams->d2h, and host blocks on a host timeline
  /// (streams->host) that takes part in the makespan. Kernel launches
  /// carry their buffer read/write sets, so cross-stream data hazards
  /// order the schedule; functional results are bit-exact versus
  /// synchronous issue.
  struct RunOptions {
    bool execute = true;
    int repetitions = 1;
    std::optional<gpu::StreamSet> streams;
  };

  /// Executes one invocation. With execute=true data really moves and
  /// kernels really run (bit-exact against the interpreter); with
  /// execute=false only simulated time is accrued (repetition of a
  /// frame loop). Host-step times go to `host_profiler`; GPU times to
  /// the runtime's device profiler. The arguments are used in place,
  /// without a copy, and hold their values again when the call returns
  /// or throws: a driver refills the same frame for its next call.
  sac::Value run(gpu::cuda::Runtime& rt, std::vector<sac::Value>& args,
                 const gpu::HostSpec& host, gpu::Profiler& host_profiler,
                 const RunOptions& options);
  sac::Value run(gpu::cuda::Runtime& rt, std::vector<sac::Value> args,
                 const gpu::HostSpec& host, gpu::Profiler& host_profiler, bool execute) {
    RunOptions o;
    o.execute = execute;
    return run(rt, args, host, host_profiler, o);
  }
  /// The same invocation for a frame loop: an executed run moves its
  /// result into `result`, a timing-only run leaves it as it is, and
  /// neither allocates on the launch path (DESIGN decision 20).
  void run(gpu::cuda::Runtime& rt, std::vector<sac::Value>& args, const gpu::HostSpec& host,
           gpu::Profiler& host_profiler, const RunOptions& options,
           std::optional<sac::Value>& result);

 private:
  /// Resolves every variable to a dense id and binds the steps to them.
  void bind();

  sac::CompiledFunction fn_;
  std::vector<Step> steps_;
  std::string return_var_;
  std::map<std::string, Shape> shapes_;
  std::map<std::size_t, double> measured_host_ops_;  // step index -> ops

  /// What a run binds to one variable: its host value, its device
  /// buffer and which of the two holds the current value.
  struct Binding {
    std::optional<sac::Value> host;  ///< bound in the host environment
    gpu::BufferHandle device;
    bool host_valid = false;
    bool device_valid = false;
    bool host_written = false;  ///< produced by a host step this run
  };
  /// Variable names by id, in name order, and each one's planned shape
  /// (nullptr: none recorded).
  std::vector<std::string> names_;
  std::vector<std::optional<Shape>> shape_of_;
  std::vector<std::size_t> param_ids_;
  std::size_t return_id_ = 0;
  /// The run state, reused by every call: one binding per variable.
  std::vector<Binding> bindings_;
  std::vector<gpu::BufferHandle> hazards_;  ///< a launch's reads
};

/// The sequential lowering: the whole compiled function runs on the
/// host model (the paper's SAC-Seq baselines). With execute=true the
/// result is computed by the reference interpreter; the simulated time
/// always comes from the operation estimate.
struct HostRunResult {
  sac::Value result;  ///< meaningful only when executed
  double ops = 0;
  double time_us = 0;
};
HostRunResult run_sequential(const sac::CompiledFunction& fn,
                             const std::vector<sac::Value>& args, const gpu::HostSpec& host,
                             bool execute);

/// Static abstract-operation estimate of a statement list (loop trip
/// counts and generator sizes must be literal). nullopt when something
/// is not statically countable.
std::optional<double> estimate_ops(const std::vector<sac::StmtPtr>& body);

}  // namespace saclo::sac_cuda
