#include "core/const_divisor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace saclo {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// The numerators every divisor is checked on: the extremes, the small
/// values, d's multiples one off either side (where a quotient steps),
/// and random values.
std::vector<std::int64_t> numerators(std::int64_t d, std::mt19937_64& rng) {
  std::vector<std::int64_t> ns = {kMin, kMin + 1, kMax, kMax - 1, 0, 1, -1, 2, -2};
  // The multiples k * d of either sign, up to the largest that fits.
  const std::uint64_t ad = d < 0 ? 0 - static_cast<std::uint64_t>(d) : static_cast<std::uint64_t>(d);
  const auto kmax = static_cast<std::int64_t>(static_cast<std::uint64_t>(kMax) / ad);
  std::vector<std::int64_t> multiples = {d};
  for (const std::int64_t k : {std::int64_t{1}, std::int64_t{2}, std::int64_t{3}, kmax / 2, kmax}) {
    if (k < 1 || k > kmax) continue;
    multiples.push_back(k * d);
    multiples.push_back(-k * d);
  }
  for (const std::int64_t m : multiples) {
    ns.push_back(m);
    if (m != kMin) ns.push_back(m - 1);
    if (m != kMax) ns.push_back(m + 1);
  }
  std::uniform_int_distribution<std::int64_t> any(kMin, kMax);
  std::uniform_int_distribution<int> bits(0, 62);
  for (int i = 0; i < 64; ++i) {
    ns.push_back(any(rng));
    // Small magnitudes too: most numerators a kernel sees are.
    ns.push_back(any(rng) >> bits(rng));
  }
  return ns;
}

void expect_exact(std::int64_t d, std::mt19937_64& rng) {
  const ConstDivisor cd(d);
  ASSERT_EQ(cd.divisor(), d);
  for (const std::int64_t n : numerators(d, rng)) {
    if (n == kMin && d == -1) continue;  // undefined for `/` and `%`
    ASSERT_EQ(cd.div(n), n / d) << n << " / " << d;
    ASSERT_EQ(cd.mod(n), n % d) << n << " % " << d;
  }
}

TEST(ConstDivisorTest, SmallDivisorsOfBothSigns) {
  std::mt19937_64 rng(1);
  for (std::int64_t d = 1; d <= 2000; ++d) {
    expect_exact(d, rng);
    expect_exact(-d, rng);
  }
}

TEST(ConstDivisorTest, ExtremeDivisors) {
  std::mt19937_64 rng(2);
  for (const std::int64_t d : {kMax, kMin + 1, kMin, kMax - 1, kMin + 2}) expect_exact(d, rng);
  for (int b = 1; b < 63; ++b) {
    const std::int64_t p = std::int64_t{1} << b;
    for (const std::int64_t d : {p, -p, p - 1, p + 1, -(p - 1), -(p + 1)}) expect_exact(d, rng);
  }
}

TEST(ConstDivisorTest, RandomDivisors) {
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::int64_t> any(kMin, kMax);
  std::uniform_int_distribution<int> bits(0, 62);
  for (int i = 0; i < 2000; ++i) {
    std::int64_t d = any(rng) >> (i % 2 == 0 ? 0 : bits(rng));
    if (d == 0) d = 7;
    expect_exact(d, rng);
  }
}

TEST(ConstDivisorTest, ZeroIsRejected) { EXPECT_THROW(ConstDivisor(0), Error); }

}  // namespace
}  // namespace saclo
