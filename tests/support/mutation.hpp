#pragma once

// Seeded input mutation for parser robustness suites: each valid input
// is truncated, has a byte flipped or has a byte inserted, 1000 times,
// and every case must yield a value (or `false`, for parsers that
// report failure that way) or the parser's typed error — never another
// exception, and never a sanitizer report.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <type_traits>

namespace saclo::testsupport {

constexpr int kMutationCases = 1000;

/// Mutation `kind` 0 truncates, 1 flips one byte, 2 inserts one byte;
/// positions and bytes come from raw engine draws (portable across
/// standard libraries).
inline std::string mutate(const std::string& valid, int kind, std::mt19937_64& rng) {
  std::string text = valid;
  const std::size_t pos = static_cast<std::size_t>(rng() % (text.size() + 1));
  const char byte = static_cast<char>(rng() % 256);
  switch (kind) {
    case 0: text.resize(pos); break;
    case 1: text[pos % text.size()] = byte; break;
    default: text.insert(pos, 1, byte); break;
  }
  return text;
}

/// `parse` accepts the valid input; every mutation of it is accepted,
/// returns false (when `parse` returns bool) or throws `Typed`. At
/// least one mutation must be rejected, or the input exercises nothing.
template <typename Typed, typename Parse>
void expect_value_or_typed_error(const std::string& valid, std::uint64_t seed, Parse parse) {
  constexpr bool kReportsFalse = std::is_same_v<decltype(parse(valid)), bool>;
  if constexpr (kReportsFalse) {
    ASSERT_TRUE(parse(valid));
  } else {
    ASSERT_NO_THROW(parse(valid));
  }
  std::mt19937_64 rng(seed);
  int rejected = 0;
  for (int i = 0; i < kMutationCases; ++i) {
    const std::string text = mutate(valid, i % 3, rng);
    try {
      if constexpr (kReportsFalse) {
        if (!parse(text)) ++rejected;
      } else {
        parse(text);
      }
    } catch (const Typed&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << " threw an untyped exception: " << e.what();
    } catch (...) {
      ADD_FAILURE() << "case " << i << " threw a non-standard exception";
    }
  }
  EXPECT_GT(rejected, 0) << "no mutation was rejected: the inputs are not being exercised";
}

}  // namespace saclo::testsupport
