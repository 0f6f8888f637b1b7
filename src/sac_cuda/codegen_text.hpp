#pragma once

#include <string>

#include "sac_cuda/program.hpp"

namespace saclo::sac_cuda {

/// Raised when a planned kernel holds an expression the CUDA C emitter
/// has no form for: a selection from anything but a named array, an
/// array of unknown shape, or a kind of expression C cannot spell.
class CodegenError : public BackendError {
 public:
  using BackendError::BackendError;
};

/// Emits the CUDA C translation unit for a planned program: one
/// `__global__` kernel per with-loop generator (Section VII of the
/// paper) and a host driver with cudaMalloc / cudaMemcpy / launch
/// calls. This is the artefact a user would compile with nvcc on a
/// real GPU; the golden tests pin its shape.
std::string emit_cuda_source(const CudaProgram& program);

/// Emits one kernel only (used by the examples to show individual
/// generator outlining).
std::string emit_kernel_source(const GenKernel& kernel, const KernelGroup& group,
                               const std::map<std::string, Shape>& shapes);

}  // namespace saclo::sac_cuda
