// Bench-side delegating Strategy: forwards every virtual to the wrapped
// strategy and measures the calls the engine makes into it.
//
// on_request is timed on a sample (every 16th call, starting with the
// first) so the traced run stays close to the untraced one: timing
// every call adds two clock reads per request, which on the one-task
// Random/Sorted requests is as much as the request itself. Counts
// (requests, empty answers, tasks, blocks) are exact.
//
// Never combine the wrapper with a TraceSink: Strategy::attach_observer
// is non-virtual, so the engine would attach the sink to the wrapper
// and the wrapped strategy would emit no fetch/phase events.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/strategy.hpp"

namespace figbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct RequestCounts {
  std::uint64_t requests = 0;  // on_request calls
  std::uint64_t empty = 0;     // calls answered false (worker retired)
  std::uint64_t useful = 0;    // calls granting at least one task
  std::uint64_t tasks = 0;
  std::uint64_t blocks = 0;
};

class TimingStrategy final : public hetsched::Strategy {
 public:
  static constexpr std::uint64_t kSampleMask = 15;  // every 16th call

  /// `samples` receives one raw duration (ns, clock cost included) per
  /// sampled on_request; it must outlive the wrapper.
  TimingStrategy(hetsched::Strategy& inner, std::vector<std::uint64_t>& samples)
      : inner_(inner), samples_(samples) {}

  using Strategy::on_request;

  bool on_request(std::uint32_t worker, hetsched::Assignment& out) override {
    bool granted = false;
    if ((counts_.requests++ & kSampleMask) == 0) {
      const std::uint64_t t0 = now_ns();
      granted = inner_.on_request(worker, out);
      samples_.push_back(now_ns() - t0);
    } else {
      granted = inner_.on_request(worker, out);
    }
    if (!granted) {
      ++counts_.empty;
      return false;
    }
    const std::uint64_t tasks = out.task_count();
    counts_.tasks += tasks;
    counts_.blocks += out.block_count();
    counts_.useful += tasks != 0 ? 1 : 0;
    return true;
  }

  std::string name() const override { return inner_.name(); }
  std::uint64_t total_tasks() const override { return inner_.total_tasks(); }
  std::uint64_t unassigned_tasks() const override {
    return inner_.unassigned_tasks();
  }
  bool reset(std::uint64_t seed) override { return inner_.reset(seed); }
  std::uint32_t workers() const override { return inner_.workers(); }
  bool requeue(const std::vector<hetsched::TaskId>& tasks) override {
    return inner_.requeue(tasks);
  }
  double knowledge_fraction(std::uint32_t worker) const override {
    return inner_.knowledge_fraction(worker);
  }
  int current_phase() const override { return inner_.current_phase(); }
  void prepare_lanes() override { inner_.prepare_lanes(); }
  hetsched::LaneUtilization lane_utilization() const override {
    return inner_.lane_utilization();
  }

  const RequestCounts& counts() const noexcept { return counts_; }

 private:
  hetsched::Strategy& inner_;
  std::vector<std::uint64_t>& samples_;
  RequestCounts counts_;
};

}  // namespace figbench
