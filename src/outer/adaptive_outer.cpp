#include "outer/adaptive_outer.hpp"

#include <stdexcept>

namespace hetsched {

AdaptiveOuterStrategy::AdaptiveOuterStrategy(OuterConfig config,
                                             std::uint32_t workers,
                                             std::uint64_t seed,
                                             double threshold,
                                             std::uint32_t window)
    : config_(config),
      pool_(config.total_tasks()),
      rng_(derive_stream(seed, "outer.adaptive")),
      threshold_(threshold),
      window_(window == 0 ? 2 * workers : window) {
  validate(config_);
  if (workers == 0) {
    throw std::invalid_argument("AdaptiveOuterStrategy: need >= 1 worker");
  }
  if (!(threshold > 0.0)) {
    throw std::invalid_argument(
        "AdaptiveOuterStrategy: threshold must be positive");
  }
  state_.assign(workers, WorkerState{OuterKnowledge(config_.n, config_.n),
                                     DynamicBitset(config_.n),
                                     DynamicBitset(config_.n)});
}

void AdaptiveOuterStrategy::record_step(std::size_t tasks_gained) {
  recent_gains_.push_back(static_cast<std::uint32_t>(tasks_gained));
  recent_sum_ += tasks_gained;
  if (recent_gains_.size() > window_) {
    recent_sum_ -= recent_gains_.front();
    recent_gains_.pop_front();
  }
  if (recent_gains_.size() < window_) return;
  const double average = static_cast<double>(recent_sum_) /
                         static_cast<double>(window_);
  // Efficiency starts at ~1 task/step (the first acquisition enables
  // only the corner task), climbs as knowledge compounds, then decays
  // as competition marks the L-shapes. Arm on the way up so the initial
  // transient cannot trigger a premature switch; fire on the way down.
  if (!armed_) {
    if (average > threshold_) armed_ = true;
    return;
  }
  if (average < threshold_) {
    switched_ = true;
    tasks_at_switch_ = pool_.size();
  }
}

bool AdaptiveOuterStrategy::on_request(std::uint32_t worker, Assignment& out) {
  out.clear();
  if (pool_.empty()) return false;
  if (switched_) return random_request(worker, out);
  return dynamic_request(worker, out);
}

bool AdaptiveOuterStrategy::dynamic_request(std::uint32_t worker, Assignment& out) {
  WorkerState& w = state_[worker];
  if (!w.known.can_draw()) return random_request(worker, out);
  const auto [i, j] = w.known.draw(rng_);
  out.blocks.push_back(BlockRef{Operand::kVecA, i, 0});
  out.blocks.push_back(BlockRef{Operand::kVecB, j, 0});
  w.owned_a.set(i);
  w.owned_b.set(j);
  w.known.take_extension(config_.n, i, j, pool_, out.tasks);
  record_step(out.tasks.size());
  return true;
}

bool AdaptiveOuterStrategy::random_request(std::uint32_t worker, Assignment& out) {
  if (pool_.empty()) return false;
  WorkerState& w = state_[worker];
  const TaskId id = pool_.pop_random(rng_);
  const auto [i, j] = outer_task_coords(config_.n, id);
  charge_outer_task_blocks(i, j, w.owned_a, w.owned_b, out);
  out.tasks.push_back(id);
  return true;
}

}  // namespace hetsched
