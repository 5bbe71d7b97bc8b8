#include "util/rusage.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace vsstat::util {
namespace {

TEST(RunIsolated, ReportsSuccessExitCode) {
  const CampaignUsage u = runIsolated([] { /* trivial workload */ });
  EXPECT_EQ(u.exitCode, 0);
  EXPECT_GE(u.wallSeconds, 0.0);
  EXPECT_GT(u.maxRssMiB, 0.0);
}

TEST(RunIsolated, ReportsFailureExitCode) {
  const CampaignUsage u =
      runIsolated([] { throw std::runtime_error("child fails"); });
  EXPECT_EQ(u.exitCode, 1);
}

TEST(RunIsolated, ChildMemoryDoesNotLeakIntoParent) {
  // Allocate ~64 MiB in the child; the parent's measurement of a later
  // trivial child must not inherit that RSS.
  const CampaignUsage big = runIsolated([] {
    std::vector<double> hog(8 * 1024 * 1024, 1.0);
    volatile double sink = hog[123];
    (void)sink;
  });
  const CampaignUsage small = runIsolated([] {});
  EXPECT_GT(big.maxRssMiB, small.maxRssMiB);
}

/// Sum of i*i over [0, n) through the shared pool on four threads.
std::uint64_t pooledSquareSum(std::size_t n) {
  std::atomic<std::uint64_t> sum{0};
  parallelFor(
      n,
      [&](std::size_t i) {
        sum.fetch_add(static_cast<std::uint64_t>(i) * i,
                      std::memory_order_relaxed);
      },
      4);
  return sum.load();
}

TEST(RunIsolated, ChildrenOfAWarmPoolRunParallelFor) {
  // Forking right after a parent sweep is when a late-waking worker may
  // hold the pool's state lock; a child that inherited that lock would
  // block forever in its own parallelFor (the ctest TIMEOUT catches it).
  constexpr std::size_t kCount = 1000;
  const std::uint64_t expected = pooledSquareSum(kCount);
  for (int round = 0; round < 200; ++round) {
    ASSERT_EQ(pooledSquareSum(kCount), expected);
    const CampaignUsage u = runIsolated([&] {
      if (pooledSquareSum(kCount) != expected)
        throw std::runtime_error("child sum differs");
    });
    ASSERT_EQ(u.exitCode, 0) << "round " << round;
  }
}

TEST(RunInProcess, MeasuresWallTime) {
  const CampaignUsage u = runInProcess([] {
    volatile double x = 0.0;
    for (int i = 0; i < 100000; ++i) x = x + static_cast<double>(i);
  });
  EXPECT_EQ(u.exitCode, 0);
  EXPECT_GE(u.wallSeconds, 0.0);
}

}  // namespace
}  // namespace vsstat::util
