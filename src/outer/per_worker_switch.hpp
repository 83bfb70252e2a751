// Speed-aware per-worker phase switching (ablation).
//
// DynamicOuter2Phases switches *globally* when e^{-beta} N^2 tasks
// remain — deliberately speed-agnostic (Section 3.6). The analysis
// actually derives a per-worker switch point x_k^2 = beta rs_k -
// (beta^2/2) rs_k^2; this variant applies it directly, letting each
// worker leave the data-aware phase as soon as it has covered its own
// share. Comparing the two quantifies what knowing the speeds buys
// (bench/abl_switch_rule): per the paper's claim, very little.
#pragma once

#include <cstdint>
#include <vector>

#include "common/dynamic_bitset.hpp"
#include "common/rng.hpp"
#include "common/swap_remove_pool.hpp"
#include "outer/outer_problem.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

class PerWorkerSwitchOuterStrategy final : public Strategy {
 public:
  /// `speeds` are the actual worker speeds (this variant is speed-aware
  /// by design); beta as in the two-phase analysis.
  PerWorkerSwitchOuterStrategy(OuterConfig config,
                               const std::vector<double>& speeds,
                               std::uint64_t seed, double beta);

  std::string name() const override { return "DynamicOuterPerWorkerSwitch"; }
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

  /// Worker k's switch threshold on |I_k| (block count).
  std::uint32_t switch_rows(std::uint32_t worker) const {
    return switch_rows_[worker];
  }

 private:
  struct WorkerState {
    OuterKnowledge known;
    DynamicBitset owned_a;
    DynamicBitset owned_b;
  };

  bool dynamic_request(std::uint32_t worker, Assignment& out);
  bool random_request(std::uint32_t worker, Assignment& out);

  OuterConfig config_;
  SwapRemovePool pool_;
  std::vector<WorkerState> state_;
  std::vector<std::uint32_t> switch_rows_;
  Rng rng_;
};

}  // namespace hetsched
