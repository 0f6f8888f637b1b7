#pragma once

#include <cstdint>

#include "core/error.hpp"

namespace saclo {

/// Signed 64-bit division by a divisor fixed at plan time: one
/// multiply-high, a shift and a sign fix in place of an `idiv`, which
/// costs tens of cycles and which no compiler vectorises (Hacker's
/// Delight 10-1; Granlund & Montgomery, "Division by invariant integers
/// using multiplication", PLDI 1994).
///
/// div() and mod() are bit-exact with C++ `/` and `%` for every nonzero
/// divisor and every numerator for which those operators are defined
/// (all but INT64_MIN / -1).
class ConstDivisor {
 public:
  explicit ConstDivisor(std::int64_t d) : d_(d) {
    if (d == 0) throw Error("ConstDivisor: division by zero");
    if (d == 1 || d == -1) {
      // q = ±n: no multiply, no rounding fix.
      add_ = static_cast<int>(d);
      round_ = false;
      return;
    }
    // The smallest p >= 64 with 2^p > nc * (|d| - 2^p mod |d|), where nc
    // is the largest numerator of d's sign with nc mod |d| == |d| - 1;
    // the magic number is then ceil(2^p / |d|), negated for d < 0.
    constexpr std::uint64_t two63 = std::uint64_t{1} << 63;
    const auto ud = static_cast<std::uint64_t>(d);
    const std::uint64_t ad = d < 0 ? 0 - ud : ud;
    const std::uint64_t t = two63 + (ud >> 63);
    const std::uint64_t anc = t - 1 - t % ad;
    int p = 63;
    std::uint64_t q1 = two63 / anc;
    std::uint64_t r1 = two63 - q1 * anc;
    std::uint64_t q2 = two63 / ad;
    std::uint64_t r2 = two63 - q2 * ad;
    std::uint64_t delta = 0;
    do {
      ++p;
      q1 *= 2;
      r1 *= 2;
      if (r1 >= anc) {
        ++q1;
        r1 -= anc;
      }
      q2 *= 2;
      r2 *= 2;
      if (r2 >= ad) {
        ++q2;
        r2 -= ad;
      }
      delta = ad - r2;
    } while (q1 < delta || (q1 == delta && r1 == 0));
    std::uint64_t m = q2 + 1;
    if (d < 0) m = 0 - m;
    magic_ = static_cast<std::int64_t>(m);
    shift_ = p - 64;
    // A magic number whose sign differs from d's stands for m + 2^64
    // (or m - 2^64): add (or subtract) the numerator once.
    if (d > 0 && magic_ < 0) add_ = 1;
    if (d < 0 && magic_ > 0) add_ = -1;
  }

  std::int64_t divisor() const { return d_; }

  /// n / d, truncated toward zero.
  /// The branches test plan-time constants: in a loop over many
  /// numerators they are predicted, or hoisted out by the compiler.
  std::int64_t div(std::int64_t n) const {
    auto hi = static_cast<std::uint64_t>((static_cast<__int128>(magic_) * n) >> 64);
    // Wrapping adds: d == -1 maps INT64_MIN to itself, where `/` is
    // undefined, instead of overflowing.
    if (add_ > 0) hi += static_cast<std::uint64_t>(n);
    if (add_ < 0) hi -= static_cast<std::uint64_t>(n);
    const auto q = static_cast<std::int64_t>(hi) >> shift_;
    // Truncate toward zero: a negative floor quotient moves up by one.
    if (!round_) return q;
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(q) +
                                     (static_cast<std::uint64_t>(q) >> 63));
  }

  /// n % d, with the sign of n.
  std::int64_t mod(std::int64_t n) const {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(n) -
                                     static_cast<std::uint64_t>(div(n)) *
                                         static_cast<std::uint64_t>(d_));
  }

 private:
  std::int64_t d_;
  std::int64_t magic_ = 0;
  int add_ = 0;         ///< the numerator is added (1) or subtracted (-1) once
  int shift_ = 0;
  bool round_ = true;  ///< a negative quotient is rounded toward zero
};

}  // namespace saclo
