#pragma once

#include <utility>

namespace saclo {

/// Runs `fn` when the scope ends, whichever way it ends: a normal
/// return, a break out of a loop, or an exception. `fn` must not throw.
template <typename Fn>
class ScopeExit {
 public:
  explicit ScopeExit(Fn fn) : fn_(std::move(fn)) {}
  ~ScopeExit() { fn_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  Fn fn_;
};

}  // namespace saclo
