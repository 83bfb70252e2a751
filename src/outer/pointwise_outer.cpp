#include "outer/pointwise_outer.hpp"

namespace hetsched {

PointwiseOuterStrategy::PointwiseOuterStrategy(OuterConfig config,
                                               std::uint32_t workers)
    : config_(config),
      n_div_(config.n),
      n_workers_(workers),
      pool_(config.total_tasks()) {
  validate(config_);
  owned_.resize(workers);
  for (auto& w : owned_) {
    w.owned_a = DynamicBitset(config_.n);
    w.owned_b = DynamicBitset(config_.n);
  }
}

bool PointwiseOuterStrategy::on_request(std::uint32_t worker,
                                        Assignment& out) {
  out.clear();
  if (pool_.empty()) return false;
  const TaskId id = next_task();
  const auto [i, j] = outer_task_coords(n_div_, id);

  WorkerBlocks& blocks = owned_[worker];
  charge_outer_task_blocks(i, j, blocks.owned_a, blocks.owned_b, out);
  out.tasks.push_back(id);
  return true;
}

}  // namespace hetsched
