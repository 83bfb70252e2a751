// Fault-injection parity for the comm-timed engine (mirrors
// sim/fault_test.cpp): the shared EventCore gives simulate_timed the
// same crash/straggler semantics as the flat engine — plus the timed
// twist that runnable, in-transit and in-flight tasks are all requeued
// while link time already spent stays spent.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "obs/metrics.hpp"
#include "outer/outer_factory.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"
#include "sim/engine_timed.hpp"
#include "sim/trace.hpp"

namespace hetsched {
namespace {

TimedSimConfig with_faults(std::vector<WorkerFault> faults) {
  TimedSimConfig config;
  config.faults = std::move(faults);
  return config;
}

TEST(TimedFaultInjection, CrashedWorkerTasksAreRequeuedAndCompleted) {
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{30}, 3, 1);
  Platform platform({20.0, 30.0, 50.0});
  RecordingTrace trace;
  const TimedSimResult result = simulate_timed(
      *strategy, platform, with_faults({WorkerFault{0.5, 2, 0.0}}), &trace);
  EXPECT_EQ(result.total_tasks_done, 900u);
  EXPECT_EQ(result.crashed_workers, 1u);
  EXPECT_GE(result.requeued_tasks, 1u);
  // Every task completes exactly once despite the crash.
  std::set<TaskId> completed;
  for (const auto& ev : trace.completions()) {
    EXPECT_TRUE(completed.insert(ev.task).second);
  }
  EXPECT_EQ(completed.size(), 900u);
  // The dead worker does nothing after t = 0.5 (the crash empties its
  // message and compute slots).
  for (const auto& ev : trace.completions()) {
    if (ev.worker == 2) {
      EXPECT_LE(ev.time, 0.5 + 1e-9);
    }
  }
}

TEST(TimedFaultInjection, CrashWorksForDataAwareStrategies) {
  for (const char* name :
       {"DynamicOuter", "DynamicOuter2Phases", "SortedOuter"}) {
    OuterStrategyOptions options;
    options.phase2_fraction = 0.05;
    auto strategy = make_outer_strategy(name, OuterConfig{24}, 4, 2, options);
    Platform platform({10.0, 20.0, 40.0, 80.0});
    const TimedSimResult result = simulate_timed(
        *strategy, platform, with_faults({WorkerFault{0.2, 3, 0.0}}));
    EXPECT_EQ(result.total_tasks_done, 576u) << name;
    EXPECT_EQ(result.crashed_workers, 1u) << name;
  }
}

TEST(TimedFaultInjection, InTransitWorkOfCrashedWorkerIsRecovered) {
  // A deep lookahead keeps several assignments on the wire or queued on
  // the victim; all of them must come back through requeue.
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{20}, 2, 3);
  Platform platform({40.0, 40.0});
  TimedSimConfig config = with_faults({WorkerFault{0.3, 1, 0.0}});
  config.lookahead = 8;
  const TimedSimResult result = simulate_timed(*strategy, platform, config);
  EXPECT_EQ(result.total_tasks_done, 400u);
  EXPECT_EQ(result.crashed_workers, 1u);
  EXPECT_GE(result.requeued_tasks, 1u);
  EXPECT_EQ(strategy->unassigned_tasks(), 0u);
}

TEST(TimedFaultInjection, MultipleCrashesSurvivedByLastWorker) {
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{16}, 3, 4);
  Platform platform({30.0, 30.0, 30.0});
  const TimedSimResult result = simulate_timed(
      *strategy, platform,
      with_faults({WorkerFault{0.1, 0, 0.0}, WorkerFault{0.2, 1, 0.0}}));
  EXPECT_EQ(result.total_tasks_done, 256u);
  EXPECT_EQ(result.crashed_workers, 2u);
  EXPECT_GT(result.workers[2].tasks_done, 200u);
}

TEST(TimedFaultInjection, LateCrashAfterRetirementIsHarmless) {
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{10}, 2, 5);
  Platform platform({50.0, 50.0});
  const TimedSimResult result = simulate_timed(
      *strategy, platform, with_faults({WorkerFault{100.0, 0, 0.0}}));
  EXPECT_EQ(result.total_tasks_done, 100u);
  EXPECT_EQ(result.requeued_tasks, 0u);
}

TEST(TimedFaultInjection, StragglerSlowsButCompletes) {
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{30}, 2, 7);
  Platform platform({50.0, 50.0});
  const TimedSimResult slowed = simulate_timed(
      *strategy, platform, with_faults({WorkerFault{0.1, 1, 0.1}}));
  EXPECT_EQ(slowed.total_tasks_done, 900u);
  // Demand-driven balancing shifts work to the healthy worker.
  EXPECT_GT(slowed.workers[0].tasks_done, 2u * slowed.workers[1].tasks_done);
  EXPECT_EQ(slowed.crashed_workers, 0u);
}

TEST(TimedFaultInjection, PerturbationDriftsSpeeds) {
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{20}, 2, 8);
  Platform platform({40.0, 40.0});
  TimedSimConfig config;
  config.perturbation = PerturbationModel(10.0);
  const TimedSimResult result = simulate_timed(*strategy, platform, config);
  EXPECT_EQ(result.total_tasks_done, 400u);
  // With +-10% per-task drift the final speeds have left the base value.
  EXPECT_NE(result.workers[0].final_speed, 40.0);
}

TEST(TimedFaultInjection, WorkStealingCannotRequeueAndSaysSo) {
  auto strategy =
      make_outer_strategy("WorkStealingOuter", OuterConfig{16}, 2, 8);
  Platform platform({30.0, 30.0});
  EXPECT_THROW(simulate_timed(*strategy, platform,
                              with_faults({WorkerFault{0.1, 0, 0.0}})),
               std::invalid_argument);
}

TEST(TimedFaultInjection, RejectsMalformedFaultsViaSharedValidation) {
  // Same EventCore::validate_faults path as the flat engine.
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{8}, 2, 9);
  Platform platform({10.0, 10.0});
  EXPECT_THROW(simulate_timed(*strategy, platform,
                              with_faults({WorkerFault{0.1, 5, 0.0}})),
               std::invalid_argument);
  EXPECT_THROW(simulate_timed(*strategy, platform,
                              with_faults({WorkerFault{0.1, 0, 1.5}})),
               std::invalid_argument);
  EXPECT_THROW(simulate_timed(*strategy, platform,
                              with_faults({WorkerFault{-1.0, 0, 0.0}})),
               std::invalid_argument);
}

TEST(TimedFaultInjection, MetricsPublishedIncludingTimedExtras) {
  auto strategy = make_outer_strategy("DynamicOuter", OuterConfig{16}, 2, 10);
  Platform platform({30.0, 60.0});
  MetricsRegistry registry;
  TimedSimConfig config = with_faults({WorkerFault{0.2, 0, 0.0}});
  config.metrics = &registry;
  const TimedSimResult result = simulate_timed(*strategy, platform, config);
  // Shared EventCore counters/gauges...
  EXPECT_EQ(registry.counter("sim.tasks_done").value(),
            result.total_tasks_done);
  EXPECT_EQ(registry.counter("sim.requeued_tasks").value(),
            result.requeued_tasks);
  EXPECT_EQ(registry.counter("sim.crashed_workers").value(), 1u);
  EXPECT_EQ(registry.gauge("sim.makespan").value(), result.makespan);
  // ...plus the timed-only ones.
  EXPECT_EQ(registry.gauge("sim.link_busy_time").value(),
            result.link_busy_time);
  for (std::uint32_t k = 0; k < 2; ++k) {
    EXPECT_EQ(
        registry.gauge("worker." + std::to_string(k) + ".starved_time").value(),
        result.workers[k].starved_time);
  }
}

TEST(TimedFaultInjection, FlatAndTimedAgreeOnFaultAccounting) {
  // Same strategy seed, same crash script: the engines schedule
  // differently (comm timing) but must agree on conservation — all
  // tasks complete, exactly one worker dies.
  const std::vector<WorkerFault> faults = {WorkerFault{0.25, 1, 0.0}};
  auto flat = make_outer_strategy("DynamicOuter", OuterConfig{20}, 3, 11);
  Platform platform({20.0, 30.0, 50.0});
  SimConfig flat_config;
  flat_config.faults = faults;
  const SimResult a = simulate(*flat, platform, flat_config);

  auto timed = make_outer_strategy("DynamicOuter", OuterConfig{20}, 3, 11);
  const TimedSimResult b =
      simulate_timed(*timed, platform, with_faults(faults));
  EXPECT_EQ(a.total_tasks_done, b.total_tasks_done);
  EXPECT_EQ(a.crashed_workers, b.crashed_workers);
  // (Makespans are close but not ordered: the comm timing reshuffles
  // which tasks land on the victim, so the requeued sets differ.)
}

}  // namespace
}  // namespace hetsched
