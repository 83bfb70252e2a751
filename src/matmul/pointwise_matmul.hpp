// Shared machinery for the task-at-a-time matrix-multiply strategies
// (RandomMatrix / SortedMatrix).
#pragma once

#include <cstdint>
#include <vector>

#include "common/dynamic_bitset.hpp"
#include "common/task_pool.hpp"
#include "matmul/matmul_problem.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

/// Per-worker block caches for matrix multiplication: which A, B blocks
/// have been shipped in, and which C blocks the worker has already
/// started contributing to (charged once, when shipped back).
struct MatmulWorkerBlocks {
  DynamicBitset owned_a;  // n*n bits over (i, k)
  DynamicBitset owned_b;  // n*n bits over (k, j)
  DynamicBitset owned_c;  // n*n bits over (i, j)

  explicit MatmulWorkerBlocks(std::uint32_t n = 0)
      : owned_a(static_cast<std::size_t>(n) * n),
        owned_b(static_cast<std::size_t>(n) * n),
        owned_c(static_cast<std::size_t>(n) * n) {}
};

/// Appends the (up to three) block transfers task (i,j,k) requires for
/// a worker with caches `blocks`, updating the caches.
void charge_matmul_task_blocks(std::uint32_t n, std::uint32_t i,
                               std::uint32_t j, std::uint32_t k,
                               MatmulWorkerBlocks& blocks,
                               Assignment& assignment);

/// Appends the blocks a worker with known index lists I, J, K lacks for
/// the 3(2y+1)-block extension by fresh (i, j, k), updating `blocks`:
/// A over {i} x K, I x {k}, (i, k); then B over {k} x J, K x {j},
/// (k, j); then C over {i} x J, I x {j}, (i, j).
inline void ship_matmul_extension_blocks(
    std::uint32_t n, std::uint32_t i, std::uint32_t j, std::uint32_t k,
    const std::vector<std::uint32_t>& known_i,
    const std::vector<std::uint32_t>& known_j,
    const std::vector<std::uint32_t>& known_k, MatmulWorkerBlocks& blocks,
    Assignment& out) {
  const auto ship = [&](Operand op, DynamicBitset& owned, std::uint32_t r,
                        std::uint32_t c) {
    if (owned.set_if_clear(block_index(n, r, c))) {
      out.blocks.push_back(BlockRef{op, r, c});
    }
  };
  for (const std::uint32_t k2 : known_k) ship(Operand::kMatA, blocks.owned_a, i, k2);
  for (const std::uint32_t i2 : known_i) ship(Operand::kMatA, blocks.owned_a, i2, k);
  ship(Operand::kMatA, blocks.owned_a, i, k);
  for (const std::uint32_t j2 : known_j) ship(Operand::kMatB, blocks.owned_b, k, j2);
  for (const std::uint32_t k2 : known_k) ship(Operand::kMatB, blocks.owned_b, k2, j);
  ship(Operand::kMatB, blocks.owned_b, k, j);
  for (const std::uint32_t j2 : known_j) ship(Operand::kMatC, blocks.owned_c, i, j2);
  for (const std::uint32_t i2 : known_i) ship(Operand::kMatC, blocks.owned_c, i2, j);
  ship(Operand::kMatC, blocks.owned_c, i, j);
}

/// Base for strategies that hand out one task per request.
class PointwiseMatmulStrategy : public Strategy {
 public:
  PointwiseMatmulStrategy(MatmulConfig config, std::uint32_t workers);

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
      w.owned_c.clear();
    }
    reseed(seed);
    return true;
  }

 protected:
  virtual TaskId next_task() = 0;

  /// Re-derives any RNG state for a new replication (reset() hook;
  /// deterministic strategies have none).
  virtual void reseed(std::uint64_t seed) { (void)seed; }

  const MatmulConfig& config() const noexcept { return config_; }
  TaskPool& pool() noexcept { return pool_; }

 private:
  MatmulConfig config_;
  FastDiv32 n_div_;  // id -> (i, j, k) without hardware divides
  std::uint32_t n_workers_;
  TaskPool pool_;
  std::vector<MatmulWorkerBlocks> owned_;
};

}  // namespace hetsched
