// Shared machinery for the task-at-a-time outer-product strategies
// (RandomOuter and SortedOuter differ only in which unprocessed task
// the master serves next).
#pragma once

#include <cstdint>
#include <vector>

#include "common/dynamic_bitset.hpp"
#include "common/rng.hpp"
#include "common/task_pool.hpp"
#include "outer/outer_problem.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

/// Base for strategies that hand out exactly one task per request and
/// ship whichever of a_i / b_j the worker does not hold yet.
class PointwiseOuterStrategy : public Strategy {
 public:
  PointwiseOuterStrategy(OuterConfig config, std::uint32_t workers);

  std::uint64_t total_tasks() const final { return config_.total_tasks(); }
  std::uint64_t unassigned_tasks() const final { return pool_.size(); }
  std::uint32_t workers() const final { return n_workers_; }

  using Strategy::on_request;
  bool on_request(std::uint32_t worker, Assignment& out) final;

  bool requeue(const std::vector<TaskId>& tasks) override {
    return requeue_into(pool_, tasks);
  }

  bool reset(std::uint64_t seed) final {
    pool_.reset();
    for (auto& w : owned_) {
      w.owned_a.clear();
      w.owned_b.clear();
    }
    reseed(seed);
    return true;
  }

 protected:
  /// Picks the next task to serve; pool is guaranteed non-empty.
  virtual TaskId next_task() = 0;

  /// Re-derives any RNG state for a new replication (reset() hook;
  /// deterministic strategies have none).
  virtual void reseed(std::uint64_t seed) { (void)seed; }

  const OuterConfig& config() const noexcept { return config_; }
  TaskPool& pool() noexcept { return pool_; }

 private:
  struct WorkerBlocks {
    DynamicBitset owned_a;
    DynamicBitset owned_b;
  };

  OuterConfig config_;
  FastDiv32 n_div_;  // id -> (i, j) without a hardware divide
  std::uint32_t n_workers_;
  TaskPool pool_;
  std::vector<WorkerBlocks> owned_;
};

}  // namespace hetsched
