// Self-tuning two-phase scheduling: no beta, no model, no speeds.
//
// The paper chooses the phase switch offline by minimizing the ODE
// model over beta. This variant derives the switch *online* from the
// break-even economics the model encodes: a data-aware step costs 2
// blocks and enables E tasks (E = 2 x N g(x) in the model), while the
// random phase pays about 2/(1+x) <= 2 blocks per task. Data-aware
// acquisition therefore stops paying once E falls to ~(1+x), i.e. a
// couple of tasks per step. The strategy tracks the realized tasks-per-
// step over a sliding window of recent data-aware steps and switches to
// random service when the windowed average drops below `threshold`
// (default 1.5, the model's break-even for mid-range x).
//
// bench/abl_adaptive shows this model-free rule lands within a few
// percent of the analysis-tuned DynamicOuter2Phases.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/dynamic_bitset.hpp"
#include "common/rng.hpp"
#include "common/swap_remove_pool.hpp"
#include "outer/outer_problem.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

class AdaptiveOuterStrategy final : public Strategy {
 public:
  /// threshold: switch when the windowed tasks-per-step average drops
  /// below this; window: number of recent data-aware steps averaged
  /// (0 = auto: 2 * workers).
  AdaptiveOuterStrategy(OuterConfig config, std::uint32_t workers,
                        std::uint64_t seed, double threshold = 1.5,
                        std::uint32_t window = 0);

  std::string name() const override { return "AdaptiveOuter"; }
  std::uint64_t total_tasks() const override { return config_.total_tasks(); }
  std::uint64_t unassigned_tasks() const override { return pool_.size(); }
  std::uint32_t workers() const override {
    return static_cast<std::uint32_t>(state_.size());
  }

  using Strategy::on_request;
  bool on_request(std::uint32_t worker, Assignment& out) override;

  bool requeue(const std::vector<TaskId>& tasks) override {
    return requeue_into(pool_, tasks);
  }

  /// Whether the strategy has switched to the random phase.
  bool switched() const noexcept { return switched_; }

  /// Tasks remaining when the switch happened (0 if not yet switched);
  /// comparable to the analysis's e^{-beta} N^2.
  std::uint64_t tasks_at_switch() const noexcept { return tasks_at_switch_; }

 private:
  struct WorkerState {
    OuterKnowledge known;
    DynamicBitset owned_a;
    DynamicBitset owned_b;
  };

  bool dynamic_request(std::uint32_t worker, Assignment& out);
  bool random_request(std::uint32_t worker, Assignment& out);
  void record_step(std::size_t tasks_gained);

  OuterConfig config_;
  SwapRemovePool pool_;
  std::vector<WorkerState> state_;
  Rng rng_;
  double threshold_;
  std::uint32_t window_;
  std::deque<std::uint32_t> recent_gains_;  // tasks per recent step
  std::uint64_t recent_sum_ = 0;
  bool armed_ = false;  // set once efficiency first exceeds the threshold
  bool switched_ = false;
  std::uint64_t tasks_at_switch_ = 0;
};

}  // namespace hetsched
