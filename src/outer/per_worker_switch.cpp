#include "outer/per_worker_switch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hetsched {

PerWorkerSwitchOuterStrategy::PerWorkerSwitchOuterStrategy(
    OuterConfig config, const std::vector<double>& speeds, std::uint64_t seed,
    double beta)
    : config_(config),
      pool_(config.total_tasks()),
      rng_(derive_stream(seed, "outer.per_worker")) {
  validate(config_);
  if (speeds.empty()) {
    throw std::invalid_argument(
        "PerWorkerSwitchOuterStrategy: need at least 1 worker");
  }
  if (!(beta > 0.0)) {
    throw std::invalid_argument(
        "PerWorkerSwitchOuterStrategy: beta must be positive");
  }
  double total = 0.0;
  for (const double s : speeds) {
    if (!(s > 0.0)) {
      throw std::invalid_argument(
          "PerWorkerSwitchOuterStrategy: speeds must be positive");
    }
    total += s;
  }

  state_.assign(speeds.size(),
                WorkerState{OuterKnowledge(config_.n, config_.n),
                            DynamicBitset(config_.n), DynamicBitset(config_.n)});
  switch_rows_.resize(speeds.size());
  for (std::size_t k = 0; k < speeds.size(); ++k) {
    // Lemma 3's per-worker switch point: x_k^2 = beta rs - (beta^2/2) rs^2.
    // The expression is valid only for beta <= 1/rs (see
    // OuterAnalysis::validity_cap); a very fast worker saturates at the
    // cap, where x^2 = 1/2.
    const double rs = speeds[k] / total;
    const double beta_k = std::min(beta, 1.0 / rs);
    const double x2 =
        std::clamp(beta_k * rs - 0.5 * beta_k * beta_k * rs * rs, 0.0, 1.0);
    switch_rows_[k] = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(x2) * static_cast<double>(config_.n)));
  }
}

bool PerWorkerSwitchOuterStrategy::on_request(std::uint32_t worker, Assignment& out) {
  out.clear();
  if (pool_.empty()) return false;
  const WorkerState& w = state_[worker];
  if (w.known.known_i.size() >= switch_rows_[worker] || !w.known.can_draw()) {
    return random_request(worker, out);
  }
  return dynamic_request(worker, out);
}

bool PerWorkerSwitchOuterStrategy::dynamic_request(std::uint32_t worker, Assignment& out) {
  WorkerState& w = state_[worker];
  const auto [i, j] = w.known.draw(rng_);
  out.blocks.push_back(BlockRef{Operand::kVecA, i, 0});
  out.blocks.push_back(BlockRef{Operand::kVecB, j, 0});
  w.owned_a.set(i);
  w.owned_b.set(j);
  w.known.take_extension(config_.n, i, j, pool_, out.tasks);
  return true;
}

bool PerWorkerSwitchOuterStrategy::random_request(std::uint32_t worker, Assignment& out) {
  if (pool_.empty()) return false;
  WorkerState& w = state_[worker];
  const TaskId id = pool_.pop_random(rng_);
  const auto [i, j] = outer_task_coords(config_.n, id);
  charge_outer_task_blocks(i, j, w.owned_a, w.owned_b, out);
  out.tasks.push_back(id);
  return true;
}

}  // namespace hetsched
