// Outer-product kernel model (Section 3).
//
// Computing M = a b^t for block vectors of n blocks yields n^2
// independent unit tasks T_{i,j} = a_i b_j^t. A task needs blocks a_i
// and b_j; workers cache every block they receive, so communication is
// charged only on first receipt.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/dynamic_bitset.hpp"
#include "common/fast_div.hpp"
#include "common/rng.hpp"
#include "common/swap_remove_pool.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

struct OuterConfig {
  /// Blocks per input vector (the paper's N/l). Tasks: n^2.
  std::uint32_t n = 100;

  std::uint64_t total_tasks() const noexcept {
    return static_cast<std::uint64_t>(n) * n;
  }
};

/// Row-major task id for T_{i,j}.
constexpr TaskId outer_task_id(std::uint32_t n, std::uint32_t i,
                               std::uint32_t j) noexcept {
  return static_cast<TaskId>(i) * n + j;
}

/// Inverse of outer_task_id.
constexpr std::pair<std::uint32_t, std::uint32_t> outer_task_coords(
    std::uint32_t n, TaskId id) noexcept {
  return {static_cast<std::uint32_t>(id / n), static_cast<std::uint32_t>(id % n)};
}

/// Hot-path variant for strategies that convert one id per served task:
/// divides by a precomputed multiply-shift instead of hardware divide.
inline std::pair<std::uint32_t, std::uint32_t> outer_task_coords(
    const FastDiv32& n, TaskId id) noexcept {
  const std::uint64_t i = n.div(id);
  return {static_cast<std::uint32_t>(i),
          static_cast<std::uint32_t>(id - i * n.divisor())};
}

/// Validates an OuterConfig (n >= 1, n^2 fits comfortably).
void validate(const OuterConfig& config);

/// Appends the (up to two) block transfers task (i, j) requires for a
/// worker holding `owned_a` / `owned_b`, updating them. The outer twin
/// of charge_matmul_task_blocks.
inline void charge_outer_task_blocks(std::uint32_t i, std::uint32_t j,
                                     DynamicBitset& owned_a,
                                     DynamicBitset& owned_b, Assignment& out) {
  if (owned_a.set_if_clear(i)) {
    out.blocks.push_back(BlockRef{Operand::kVecA, i, 0});
  }
  if (owned_b.set_if_clear(j)) {
    out.blocks.push_back(BlockRef{Operand::kVecB, j, 0});
  }
}

/// One worker's index knowledge in the list-based Dynamic* step
/// (Section 3): the a- and b-indices it was shipped, in acquisition
/// order, and the ones it was not, as swap-remove draw lists.
struct OuterKnowledge {
  std::vector<std::uint32_t> known_i;    // I
  std::vector<std::uint32_t> known_j;    // J
  std::vector<std::uint32_t> unknown_i;  // 0..rows-1 minus I
  std::vector<std::uint32_t> unknown_j;  // 0..cols-1 minus J

  OuterKnowledge(std::uint32_t rows, std::uint32_t cols);

  /// Whether a fresh (i, j) pair can still be drawn.
  bool can_draw() const noexcept {
    return !unknown_i.empty() && !unknown_j.empty();
  }

  /// Draws a fresh i, then a fresh j, uniformly from the unknown lists.
  std::pair<std::uint32_t, std::uint32_t> draw(Rng& rng) {
    const std::uint32_t i = pick_unknown(rng, unknown_i);
    const std::uint32_t j = pick_unknown(rng, unknown_j);
    return {i, j};
  }

  /// Moves to `tasks` every pooled task the knowledge grown by the
  /// fresh (i, j) enables, in the order (i, J), (I, j), (i, j), then
  /// records i and j as known.
  void take_extension(std::uint32_t n, std::uint32_t i, std::uint32_t j,
                      SwapRemovePool& pool, std::vector<TaskId>& tasks) {
    const auto take = [&](std::uint32_t ti, std::uint32_t tj) {
      const TaskId id = outer_task_id(n, ti, tj);
      if (pool.remove(id)) tasks.push_back(id);
    };
    for (const std::uint32_t j2 : known_j) take(i, j2);
    for (const std::uint32_t i2 : known_i) take(i2, j);
    take(i, j);
    known_i.push_back(i);
    known_j.push_back(j);
  }
};

}  // namespace hetsched
