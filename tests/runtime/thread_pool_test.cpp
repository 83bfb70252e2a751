// The dynamic parallel-for and the process-wide parallelism budget
// behind the replication engine and campaign work queue.
#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace hetsched {
namespace {

// Restores the hardware-default capacity on scope exit so an override
// cannot leak into other tests.
struct BudgetOverride {
  explicit BudgetOverride(std::uint32_t capacity) {
    set_parallel_budget_capacity(capacity);
  }
  ~BudgetOverride() { set_parallel_budget_capacity(0); }
};

TEST(ParallelForDynamic, VisitsEveryItemExactlyOnce) {
  for (const std::uint32_t workers : {1u, 2u, 4u, 7u}) {
    std::vector<std::atomic<int>> hits(100);
    parallel_for_dynamic(workers, hits.size(),
                         [&](std::uint64_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "workers=" << workers;
  }
}

TEST(ParallelForDynamic, MoreWorkersThanItemsIsFine) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for_dynamic(16, hits.size(),
                       [&](std::uint64_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForDynamic, ZeroCountIsANoOp) {
  bool called = false;
  parallel_for_dynamic(4, 0, [&](std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForDynamic, SerialPathRethrowsAndStops) {
  int ran = 0;
  EXPECT_THROW(parallel_for_dynamic(1, 10,
                                    [&](std::uint64_t i) {
                                      if (i == 3) throw std::runtime_error("x");
                                      ++ran;
                                    }),
               std::runtime_error);
  EXPECT_EQ(ran, 3);
}

TEST(ParallelForDynamic, ParallelPathRethrowsFirstError) {
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for_dynamic(4, 64,
                                    [&](std::uint64_t i) {
                                      if (i == 0) {
                                        throw std::runtime_error("boom");
                                      }
                                      ran.fetch_add(1);
                                    }),
               std::runtime_error);
  EXPECT_LT(ran.load(), 64);
}

TEST(ParallelBudget, CapacityDefaultsToAtLeastOne) {
  EXPECT_GE(parallel_budget_capacity(), 1u);
}

TEST(ParallelBudget, LeaseGrantsUpToCapacity) {
  const BudgetOverride cap(4);
  EXPECT_EQ(parallel_budget_capacity(), 4u);
  const ParallelLease a(3);
  EXPECT_EQ(a.granted(), 3u);
  EXPECT_EQ(parallel_budget_in_use(), 3u);
  const ParallelLease b(3);
  EXPECT_EQ(b.granted(), 1u);  // only one slot left
  const ParallelLease c(2);
  EXPECT_EQ(c.granted(), 0u);  // drained: the caller should go serial
  EXPECT_EQ(parallel_budget_in_use(), 4u);
}

TEST(ParallelBudget, DestructionReleasesSlots) {
  const BudgetOverride cap(2);
  {
    const ParallelLease a(2);
    EXPECT_EQ(a.granted(), 2u);
  }
  EXPECT_EQ(parallel_budget_in_use(), 0u);
  const ParallelLease b(2);
  EXPECT_EQ(b.granted(), 2u);
}

TEST(ParallelBudget, ExactLeaseRecordsUsagePastCapacity) {
  const BudgetOverride cap(2);
  const ParallelLease exact(4, /*exact=*/true);
  EXPECT_EQ(exact.granted(), 4u);  // honored as asked...
  EXPECT_EQ(parallel_budget_in_use(), 4u);  // ...and visible to others
  const ParallelLease nested(8);
  EXPECT_EQ(nested.granted(), 0u);  // other leases cannot double-book
}

TEST(ParallelBudget, ZeroWantGrantsNothing) {
  const ParallelLease lease(0);
  EXPECT_EQ(lease.granted(), 0u);
}

}  // namespace
}  // namespace hetsched
