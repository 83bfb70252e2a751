// Bit-for-bit SimResult comparison, shared by the benchmark's traced
// reassembly check and the timing-wrapper identity test.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "sim/event_core.hpp"

namespace figbench {

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

inline bool identical(const hetsched::SimResult& a,
                      const hetsched::SimResult& b) {
  if (!same_bits(a.makespan, b.makespan) || a.total_blocks != b.total_blocks ||
      a.total_tasks_done != b.total_tasks_done ||
      a.requeued_tasks != b.requeued_tasks ||
      a.crashed_workers != b.crashed_workers ||
      !same_bits(a.link_busy_time, b.link_busy_time) ||
      a.workers.size() != b.workers.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.workers.size(); ++k) {
    const hetsched::WorkerSimStats& x = a.workers[k];
    const hetsched::WorkerSimStats& y = b.workers[k];
    if (x.tasks_done != y.tasks_done ||
        x.blocks_received != y.blocks_received ||
        x.messages_received != y.messages_received ||
        !same_bits(x.busy_time, y.busy_time) ||
        !same_bits(x.finish_time, y.finish_time) ||
        !same_bits(x.starved_time, y.starved_time) ||
        !same_bits(x.final_speed, y.final_speed)) {
      return false;
    }
  }
  return true;
}

}  // namespace figbench
