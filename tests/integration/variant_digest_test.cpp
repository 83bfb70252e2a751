// Golden assignment digests for the list-based scheduler variants.
//
// Each test drives one strategy request by request (round-robin over
// workers, one crash requeue early in the run) and folds every answer
// into an FNV-1a digest: the worker, then its tasks and blocks in
// facade order. The expected values pin the exact RNG draw order,
// stream tags and emission order of AdaptiveOuter,
// DynamicOuterPerWorkerSwitch, BoundedLruOuter, DynamicRect(2Phases)
// and AdaptiveMatmul, which the invariant tests in variants_test.cpp
// and adaptive_*_test.cpp do not. A refactor of these strategies must
// leave every digest unchanged. The values were recorded before these
// strategies shared OuterKnowledge, pick_unknown and the block helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "matmul/adaptive_matmul.hpp"
#include "outer/adaptive_outer.hpp"
#include "outer/bounded_lru.hpp"
#include "outer/per_worker_switch.hpp"
#include "rect/rect_strategies.hpp"

namespace hetsched {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (value >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Serves the strategy to exhaustion, workers taking turns. At request
/// `requeue_at` the tasks of the first task-granting answer go back to
/// the pool, as after a crash.
std::uint64_t digest(Strategy& strategy, std::size_t requeue_at = 5) {
  Fnv1a hash;
  Assignment out;
  std::vector<TaskId> first_grant;
  std::vector<bool> retired(strategy.workers(), false);
  std::uint32_t live = strategy.workers();
  std::size_t step = 0;
  while (live > 0 && step < 10'000'000u) {
    if (step == requeue_at) {
      hash.add(strategy.requeue(first_grant) ? 1 : 0);
      hash.add(first_grant.size());
    }
    const auto worker =
        static_cast<std::uint32_t>(step % strategy.workers());
    ++step;
    if (retired[worker]) continue;
    if (!strategy.on_request(worker, out)) {
      retired[worker] = true;
      --live;
      hash.add(0xdeadULL + worker);
      continue;
    }
    hash.add(worker);
    hash.add(out.task_count());
    const bool keep = first_grant.empty();
    out.for_each_task([&](TaskId id) {
      hash.add(id);
      if (keep) first_grant.push_back(id);
    });
    hash.add(out.block_count());
    out.for_each_block([&](const BlockRef& b) {
      hash.add(static_cast<std::uint64_t>(b.operand));
      hash.add(b.row);
      hash.add(b.col);
    });
  }
  EXPECT_EQ(live, 0u) << "strategy never retires its workers";
  EXPECT_EQ(strategy.unassigned_tasks(), 0u);
  return hash.value();
}

TEST(VariantDigest, AdaptiveOuter) {
  AdaptiveOuterStrategy strategy(OuterConfig{40}, 4, 11);
  const std::uint64_t d = digest(strategy);
  EXPECT_TRUE(strategy.switched());
  EXPECT_EQ(d, 0x9932d965bd68fb3eULL);
}

TEST(VariantDigest, PerWorkerSwitchOuter) {
  PerWorkerSwitchOuterStrategy strategy(OuterConfig{24}, {10.0, 30.0, 60.0},
                                        12, 4.0);
  EXPECT_EQ(digest(strategy), 0x374b88437301b05aULL);
}

TEST(VariantDigest, BoundedLruOuterTight) {
  BoundedLruOuterStrategy strategy(OuterConfig{20}, 3, 13, 6);
  const std::uint64_t d = digest(strategy);
  EXPECT_GT(strategy.refetches(), 0u);
  EXPECT_EQ(d, 0xb5cc57ac3d2ef119ULL);
}

TEST(VariantDigest, BoundedLruOuterLoose) {
  BoundedLruOuterStrategy strategy(OuterConfig{20}, 3, 13, 40);
  const std::uint64_t d = digest(strategy);
  EXPECT_EQ(strategy.refetches(), 0u);
  EXPECT_EQ(d, 0x19300cfff793175eULL);
}

TEST(VariantDigest, DynamicRect) {
  const auto strategy = make_rect_strategy("DynamicRect", RectConfig{12, 30}, 3, 14);
  EXPECT_EQ(digest(*strategy), 0x7250bc99ad168e65ULL);
}

TEST(VariantDigest, DynamicRect2Phases) {
  const auto strategy =
      make_rect_strategy("DynamicRect2Phases", RectConfig{12, 30}, 3, 15, 0.3);
  EXPECT_EQ(digest(*strategy), 0xbb1d769688b24e72ULL);
}

TEST(VariantDigest, AdaptiveMatmul) {
  AdaptiveMatmulStrategy strategy(MatmulConfig{16}, 8, 16);
  const std::uint64_t d = digest(strategy);
  EXPECT_TRUE(strategy.switched());
  EXPECT_EQ(d, 0x2ad3e66dac2245ccULL);
}

}  // namespace
}  // namespace hetsched
