#include "rect/rect_strategies.hpp"

#include <cmath>
#include <stdexcept>

namespace hetsched {

DynamicRectStrategy::DynamicRectStrategy(RectConfig config,
                                         std::uint32_t workers,
                                         std::uint64_t seed,
                                         std::uint64_t phase2_tasks)
    : config_(config),
      phase2_tasks_(phase2_tasks),
      pool_(config.total_tasks()),
      rng_(derive_stream(seed, "rect.dynamic")) {
  validate(config_);
  if (workers == 0) {
    throw std::invalid_argument("DynamicRectStrategy: need >= 1 worker");
  }
  state_.assign(workers, WorkerState{OuterKnowledge(config_.rows, config_.cols),
                                     DynamicBitset(config_.rows),
                                     DynamicBitset(config_.cols)});
}

std::pair<double, double> DynamicRectStrategy::coverage(
    std::uint32_t worker) const {
  const OuterKnowledge& known = state_[worker].known;
  return {static_cast<double>(known.known_i.size()) / config_.rows,
          static_cast<double>(known.known_j.size()) / config_.cols};
}

bool DynamicRectStrategy::on_request(std::uint32_t worker, Assignment& out) {
  out.clear();
  if (pool_.empty()) return false;
  if (in_phase2()) return random_request(worker, out);
  return dynamic_request(worker, out);
}

bool DynamicRectStrategy::dynamic_request(std::uint32_t worker, Assignment& out) {
  WorkerState& w = state_[worker];
  OuterKnowledge& known = w.known;
  if (known.unknown_i.empty() && known.unknown_j.empty()) {
    return random_request(worker, out);
  }

  // Proportional acquisition: take the dimension whose coverage
  // fraction lags (rows when |I| C <= |J| R), so |I|/R tracks |J|/C.
  const bool rows_lag =
      static_cast<std::uint64_t>(known.known_i.size()) * config_.cols <=
      static_cast<std::uint64_t>(known.known_j.size()) * config_.rows;
  const bool take_row =
      !known.unknown_i.empty() && (rows_lag || known.unknown_j.empty());

  auto try_take = [&](std::uint32_t ti, std::uint32_t tj) {
    const TaskId id = rect_task_id(config_, ti, tj);
    if (pool_.remove(id)) out.tasks.push_back(id);
  };

  if (take_row) {
    const std::uint32_t i = pick_unknown(rng_, known.unknown_i);
    out.blocks.push_back(BlockRef{Operand::kVecA, i, 0});
    w.owned_a.set(i);
    for (const std::uint32_t j2 : known.known_j) try_take(i, j2);
    known.known_i.push_back(i);
  } else {
    const std::uint32_t j = pick_unknown(rng_, known.unknown_j);
    out.blocks.push_back(BlockRef{Operand::kVecB, j, 0});
    w.owned_b.set(j);
    for (const std::uint32_t i2 : known.known_i) try_take(i2, j);
    known.known_j.push_back(j);
  }
  return true;
}

bool DynamicRectStrategy::random_request(std::uint32_t worker, Assignment& out) {
  if (pool_.empty()) return false;
  WorkerState& w = state_[worker];
  const TaskId id = pool_.pop_random(rng_);
  const auto [i, j] = rect_task_coords(config_, id);

  charge_outer_task_blocks(i, j, w.owned_a, w.owned_b, out);
  out.tasks.push_back(id);
  return true;
}

PointwiseRectStrategy::PointwiseRectStrategy(RectConfig config,
                                             std::uint32_t workers,
                                             std::uint64_t seed, Order order)
    : config_(config),
      order_(order),
      pool_(config.total_tasks()),
      rng_(derive_stream(seed, "rect.pointwise")) {
  validate(config_);
  if (workers == 0) {
    throw std::invalid_argument("PointwiseRectStrategy: need >= 1 worker");
  }
  owned_.resize(workers);
  for (auto& w : owned_) {
    w.owned_a = DynamicBitset(config_.rows);
    w.owned_b = DynamicBitset(config_.cols);
  }
}

bool PointwiseRectStrategy::on_request(std::uint32_t worker, Assignment& out) {
  out.clear();
  if (pool_.empty()) return false;
  const TaskId id =
      order_ == Order::kRandom ? pool_.pop_random(rng_) : pool_.pop_first();
  const auto [i, j] = rect_task_coords(config_, id);

  WorkerBlocks& blocks = owned_[worker];
  charge_outer_task_blocks(i, j, blocks.owned_a, blocks.owned_b, out);
  out.tasks.push_back(id);
  return true;
}

std::unique_ptr<Strategy> make_rect_strategy(const std::string& name,
                                             RectConfig config,
                                             std::uint32_t workers,
                                             std::uint64_t seed,
                                             double phase2_fraction) {
  if (name == "RandomRect") {
    return std::make_unique<PointwiseRectStrategy>(
        config, workers, seed, PointwiseRectStrategy::Order::kRandom);
  }
  if (name == "SortedRect") {
    return std::make_unique<PointwiseRectStrategy>(
        config, workers, seed, PointwiseRectStrategy::Order::kSorted);
  }
  if (name == "DynamicRect") {
    return std::make_unique<DynamicRectStrategy>(config, workers, seed);
  }
  if (name == "DynamicRect2Phases") {
    if (phase2_fraction < 0.0 || phase2_fraction > 1.0) {
      throw std::invalid_argument(
          "make_rect_strategy: phase2_fraction in [0, 1]");
    }
    const auto tasks = static_cast<std::uint64_t>(std::llround(
        phase2_fraction * static_cast<double>(config.total_tasks())));
    return std::make_unique<DynamicRectStrategy>(config, workers, seed, tasks);
  }
  throw std::invalid_argument("unknown rect strategy: " + name);
}

}  // namespace hetsched
