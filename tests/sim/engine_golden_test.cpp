// Golden determinism test for the flat engine.
//
// The expected values below were captured from the standalone
// pre-EventCore implementation (commit 0ac23f0) at pinned seeds and are
// compared bit-for-bit (hexfloat literals, EXPECT_EQ on doubles). They
// pin the refactoring invariant "all existing flat-engine outputs stay
// bit-identical": any change to event ordering, tie-breaking, RNG
// stream derivation ("engine.perturb"), fault sequencing or stats
// accounting in sim/event_core.* or sim/engine.* shows up here as an
// exact-value mismatch. Do not loosen these to EXPECT_NEAR — a
// one-ulp drift means the event schedule changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "matmul/matmul_factory.hpp"
#include "outer/outer_factory.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"

namespace hetsched {
namespace {

struct GoldenWorker {
  std::uint64_t tasks;
  std::uint64_t blocks;
  double busy;
  double finish;
  double speed;
};

void expect_matches(const SimResult& result, double makespan,
                    std::uint64_t total_blocks, std::uint64_t total_tasks,
                    std::uint64_t requeued, std::uint32_t crashed,
                    const std::vector<GoldenWorker>& golden) {
  EXPECT_EQ(result.makespan, makespan);
  EXPECT_EQ(result.total_blocks, total_blocks);
  EXPECT_EQ(result.total_tasks_done, total_tasks);
  EXPECT_EQ(result.requeued_tasks, requeued);
  EXPECT_EQ(result.crashed_workers, crashed);
  ASSERT_EQ(result.workers.size(), golden.size());
  for (std::size_t k = 0; k < golden.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(result.workers[k].tasks_done, golden[k].tasks);
    EXPECT_EQ(result.workers[k].blocks_received, golden[k].blocks);
    EXPECT_EQ(result.workers[k].busy_time, golden[k].busy);
    EXPECT_EQ(result.workers[k].finish_time, golden[k].finish);
    EXPECT_EQ(result.workers[k].final_speed, golden[k].speed);
    // Flat engine: timed-only fields are identically zero.
    EXPECT_EQ(result.workers[k].messages_received, 0u);
    EXPECT_EQ(result.workers[k].starved_time, 0.0);
  }
  EXPECT_EQ(result.link_busy_time, 0.0);
}

TEST(EngineGolden, PerturbedTwoPhaseOuterIsBitIdentical) {
  // Re-derived when DynamicOuter switched to the word-parallel frontier
  // and the strict ("fewer than") phase-2 boundary: each data-aware
  // batch is the same task *set* as before but enumerated in ascending
  // index order, and the request arriving exactly at the threshold is
  // now served data-aware, so completion interleaving (hence the
  // perturbed speeds and per-worker tallies) shifted. The RNG stream
  // and its consumption are unchanged. Block counts re-derived once
  // more for the lazy-dense pool: phase-2 pops draw the same positions
  // from an ascending rebuild instead of the swap-scrambled array, so
  // the popped task *identities* (and the blocks they fetch) differ
  // while every duration, time and task tally is bit-identical.
  // Values captured from the first lazy-pool build at the same pinned
  // seeds.
  OuterStrategyOptions options;
  options.phase2_fraction = 0.05;
  auto strategy = make_outer_strategy("DynamicOuter2Phases", OuterConfig{30},
                                      5, 12345, options);
  Platform platform({17.0, 23.0, 42.0, 55.0, 80.0});
  SimConfig config;
  config.seed = 12345;
  config.perturbation = PerturbationModel(5.0);
  const SimResult result = simulate(*strategy, platform, config);
  expect_matches(
      result, 0x1.17fb0d315c3b4p+2, 221, 900, 0, 0,
      {{78, 31, 0x1.0272d1416ded7p+2, 0x1.0272d1416ded7p+2,
        0x1.88d9a7346021p+4},
       {87, 35, 0x1.00f56459bfe42p+2, 0x1.00f56459bfe42p+2,
        0x1.429b76852157cp+4},
       {231, 50, 0x1.01162bebfa27p+2, 0x1.01162bebfa27p+2,
        0x1.80bd9f2b4f5b2p+5},
       {242, 50, 0x1.17fb0d315c3b4p+2, 0x1.17fb0d315c3b4p+2,
        0x1.7c9ffca768a74p+5},
       {262, 55, 0x1.0089d8e8c5cefp+2, 0x1.0089d8e8c5cefp+2,
        0x1.300f9b94ffcdbp+6}});
}

TEST(EngineGolden, FaultedRandomMatmulIsBitIdentical) {
  auto strategy = make_matmul_strategy("RandomMatrix", MatmulConfig{8}, 4, 777);
  Platform platform({10.0, 20.0, 40.0, 80.0});
  SimConfig config;
  config.seed = 777;
  // Worker 1 straggles to a quarter speed at t=0.2; worker 3 crashes at
  // t=0.4. Faults apply in time order and win every exact-time tie
  // against completions.
  //
  // Speeds 10/20/40/80 make completion times tie exactly (workers 0
  // and 1 both request at t=0.4 and t=1.2). Block counts were
  // re-derived when the event queue switched to the canonical
  // (time, worker) tie rule: the same requests happen at the same
  // times, but tied ones are now served in worker order, so RandomMatrix
  // hands workers 0 and 1 different random tasks there. Every time,
  // task tally and speed is unchanged.
  config.faults = {WorkerFault{0.4, 3, 0.0}, WorkerFault{0.2, 1, 0.25}};
  const SimResult result = simulate(*strategy, platform, config);
  expect_matches(
      result, 0x1.199999999999ap+3, 527, 512, 1, 1,
      {{87, 153, 0x1.166666666665ep+3, 0x1.166666666665ep+3, 0x1.4p+3},
       {47, 104, 0x1.199999999999ap+3, 0x1.199999999999ap+3, 0x1.4p+2},
       {347, 192, 0x1.15999999999b9p+3, 0x1.15999999999b9p+3, 0x1.4p+5},
       {31, 78, 0x1.8ccccccccccdp-2, 0x1.8ccccccccccdp-2, 0x1.4p+6}});
}

TEST(EngineGolden, CrashRequeueRandomMatrixAtScaleIsBitIdentical) {
  // RandomMatrix over a 64000-task pool, far above the look-ahead depth
  // of SwapRemovePool::pop_random_unindexed, with two crashes mid-drain
  // whose requeues re-enter the pool; then a second rep on the same
  // strategy after reset(). Captured before the pool prefetched ahead:
  // the look-ahead must not change a single draw. (Makespan does not
  // depend on which random task is served; total_blocks does.)
  auto strategy =
      make_matmul_strategy("RandomMatrix", MatmulConfig{40}, 6, 4242);
  const Platform platform({13.0, 29.0, 41.0, 53.0, 71.0, 97.0});
  SimConfig config;
  config.seed = 4242;
  config.faults = {WorkerFault{50.0, 2, 0.0}, WorkerFault{120.0, 5, 0.0}};
  const SimResult first = simulate(*strategy, platform, config);
  EXPECT_EQ(first.makespan, 0x1.2f1a7b9611c7cp+8);
  EXPECT_EQ(first.total_blocks, 27084u);
  EXPECT_EQ(first.total_tasks_done, 64000u);
  EXPECT_EQ(first.requeued_tasks, 2u);
  EXPECT_EQ(first.crashed_workers, 2u);

  ASSERT_TRUE(strategy->reset(4243));
  config.seed = 4243;
  const SimResult second = simulate(*strategy, platform, config);
  EXPECT_EQ(second.makespan, 0x1.2f1a7b9611c7cp+8);
  EXPECT_EQ(second.total_blocks, 27112u);
  EXPECT_EQ(second.total_tasks_done, 64000u);
  EXPECT_EQ(second.requeued_tasks, 2u);
}

}  // namespace
}  // namespace hetsched
