#include "gpu/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace saclo::gpu {
namespace {

TEST(ThreadPoolTest, RunsEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroAndNegativeCountsAreNoops) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::int64_t, std::int64_t) { ++calls; });
  pool.parallel_for(-5, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SingleWorkerIsSerial) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::vector<std::int64_t> order;
  pool.parallel_for(10, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) order.push_back(i);
  });
  std::vector<std::int64_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ExceptionsPropagate) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::int64_t begin, std::int64_t end) {
                                   if (begin <= 57 && 57 < end) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must remain usable afterwards.
  std::atomic<int> done{0};
  pool.parallel_for(50, [&](std::int64_t begin, std::int64_t end) {
    done += static_cast<int>(end - begin);
  });
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, ReusableAcrossManyCalls) {
  ThreadPool pool(2);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(100, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) sum += i;
    });
  }
  EXPECT_EQ(sum.load(), 20 * (99 * 100 / 2));
}

TEST(ThreadPoolTest, FewerIterationsThanWorkers) {
  ThreadPool pool(8);
  for (std::int64_t n = 1; n < 8; ++n) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    pool.parallel_for(n, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ExceptionDoesNotLoseOtherIterations) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(256, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) {
        ran++;
        if (i % 64 == 0) throw std::runtime_error("several bodies throw");
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  // Every iteration either ran or was abandoned after the throw; the
  // pool itself stays consistent and reusable.
  EXPECT_GE(ran.load(), 1);
  std::atomic<int> done{0};
  pool.parallel_for(64, [&](std::int64_t begin, std::int64_t end) {
    done += static_cast<int>(end - begin);
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, ConcurrentStress) {
  ThreadPool pool(4);
  constexpr std::int64_t kIterations = 200'000;
  std::atomic<std::int64_t> sum{0};
  std::vector<std::atomic<std::uint8_t>> hits(kIterations);
  pool.parallel_for(kIterations, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      sum.fetch_add(i, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(sum.load(), kIterations * (kIterations - 1) / 2);
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace saclo::gpu
