#pragma once

#include <string>

#include "core/error.hpp"

namespace saclo::gpu {

/// Raised on unknown backend names.
class BackendError : public Error {
 public:
  using Error::Error;
};

/// The execution backends a VirtualGpu can delegate to. `Sim` is the
/// analytic simulator (the original behaviour); `Host` executes frame
/// loops for real on the CPU. Both run the same kernel bodies.
///
/// This header is dependency-light on purpose: the obs event log and the
/// serve options tag things with a BackendKind without pulling in the
/// whole executor stack.
enum class BackendKind : std::uint8_t { Sim = 0, Host = 1 };

inline const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::Sim:
      return "sim";
    case BackendKind::Host:
      return "host";
  }
  return "unknown";
}

/// Parses "sim" / "host"; throws BackendError on anything else.
inline BackendKind parse_backend_kind(const std::string& name) {
  if (name == "sim") return BackendKind::Sim;
  if (name == "host") return BackendKind::Host;
  throw BackendError("unknown execution backend '" + name + "' (expected sim or host)");
}

}  // namespace saclo::gpu
