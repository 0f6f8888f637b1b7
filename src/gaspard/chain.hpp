#pragma once

#include <array>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "arrayol/model.hpp"
#include "gpu/runtime_opencl.hpp"

namespace saclo::gaspard {

/// Raised when the transformation chain or the runner fails.
class ChainError : public Error {
 public:
  using Error::Error;
};

/// The highest array and repetition rank the OpenCL generator supports.
inline constexpr std::size_t kMaxRank = 4;

/// A task port's addressing, computed once when the application is
/// built so the functional kernel body does no heap allocation: the
/// paving matrix columns (for the reference element) and the
/// per-pattern-element fitting offsets F·i.
struct PortAddressing {
  std::size_t array_rank = 0;
  std::array<std::int64_t, kMaxRank> origin{};
  std::array<std::int64_t, kMaxRank> array_dims{};
  std::array<std::int64_t, kMaxRank> array_strides{};
  // paving[d][r] laid out row-major, rank x rep_rank
  std::array<std::int64_t, kMaxRank * kMaxRank> paving{};
  std::size_t rep_rank = 0;
  /// Per pattern element: the F·i offset vector.
  std::vector<std::array<std::int64_t, kMaxRank>> fit_offsets;
  /// Per pattern element: sum_d (F·i)[d] * stride[d], its element
  /// offset from the reference point when nothing wraps.
  std::vector<std::int64_t> fit_linear;
  /// Per array dimension: the extremes of (F·i)[d] over the pattern.
  std::array<std::int64_t, kMaxRank> fit_min{};
  std::array<std::int64_t, kMaxRank> fit_max{};
};

/// One OpenCL kernel generated from a repetitive task — GASPARD2 maps
/// each elementary task instance to exactly one kernel whose work items
/// are the repetition points (Section V of the paper). Contrast with
/// the SaC backend's one-kernel-per-generator.
struct TaskKernel {
  std::string name;
  aol::TaskId task = 0;
  std::int64_t work_items = 0;
  gpu::KernelCost cost;
  std::string opencl_source;
  /// The task's IP lowered to the tape VM: what the host backend runs
  /// per block of work items.
  Tape tape;
  /// The repetition dimension the host body walks fastest (the one
  /// whose step moves the first output by the fewest elements). The
  /// generated code keeps dimension 0 fastest: the id-to-item mapping
  /// is a per-target decision.
  std::size_t walk_dim = 0;

  // The launch, bound when the application is built (DESIGN decision 20).
  /// The task's ports, inputs then outputs, and each one's buffer (an
  /// index into OpenClApplication::buffers()).
  std::vector<PortAddressing> ports;
  std::vector<std::size_t> port_buffers;
  std::size_t input_ports = 0;
  std::array<std::int64_t, kMaxRank> rep_dims{};
  std::size_t rep_rank = 0;
  int lanes = 1;  ///< lanes per block run of the tape
};

/// Where each array lives in the generated application.
struct BufferPlan {
  std::string array;
  Shape shape;
  bool is_input = false;
  bool is_output = false;
};

/// The result of the GASPARD2-style transformation chain:
///   UML/MARTE model (here: the aol::Model API)
///     -> validate -> schedule -> allocate buffers -> generate OpenCL.
/// The object is both the generated source (for inspection / golden
/// tests) and an executable artefact on the simulated device.
class OpenClApplication {
 public:
  static OpenClApplication build(aol::Model model);

  const aol::Model& model() const { return model_; }
  const std::vector<TaskKernel>& kernels() const { return kernels_; }
  const std::vector<BufferPlan>& buffers() const { return buffers_; }
  const std::vector<aol::TaskId>& schedule() const { return schedule_; }

  /// The full generated .cl translation unit.
  std::string opencl_source() const;

  /// Runs one invocation: writes the input frames (in the device's
  /// pixel format, a plain copy), launches every task kernel in
  /// schedule order, reads the outputs back. execute=false accrues
  /// simulated time only and returns no arrays.
  std::map<std::string, IntArray> run(gpu::opencl::CommandQueue& queue,
                                      const std::map<std::string, PixelArray>& inputs,
                                      bool execute);

  /// Multi-queue variant: input writes on `upload`, kernels on
  /// `compute`, output reads on `download`. Data hazards on the
  /// buffers order the three queues; with distinct queues the
  /// transfers of neighbouring invocations overlap this one's kernels
  /// (the async command-queue pipeline). Results are bit-exact versus
  /// the single-queue path.
  std::map<std::string, IntArray> run(gpu::opencl::CommandQueue& upload,
                                      gpu::opencl::CommandQueue& compute,
                                      gpu::opencl::CommandQueue& download,
                                      const std::map<std::string, PixelArray>& inputs,
                                      bool execute);

 private:
  aol::Model model_{""};
  std::vector<TaskKernel> kernels_;
  std::vector<BufferPlan> buffers_;
  std::vector<aol::TaskId> schedule_;
  /// Buffer ids in the order a run frees them: descending array name.
  std::vector<std::size_t> free_order_;
  // The run state, reused by every call: each buffer's device handle,
  // and a launch's hazard handles and port views.
  std::vector<gpu::BufferHandle> live_;
  std::vector<gpu::BufferHandle> hazards_;
  std::vector<std::span<std::int32_t>> port_data_;
};

/// `name` as an identifier of the emitted OpenCL C: each character other
/// than a letter, a digit or '_' becomes '_' (the flattened names of a
/// hierarchical model, such as `b.mid_g`), and a leading digit gets a
/// '_' in front. A name that is an identifier already stays as it is.
std::string c_identifier(const std::string& name);

/// Generates the Figure 11-style tiler code of one input port (exposed
/// for the golden tests).
std::string emit_tiler_code(const aol::RepetitiveTask& task, const aol::TiledPort& port,
                            bool is_input, const Shape& array_shape);

}  // namespace saclo::gaspard
