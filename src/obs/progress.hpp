// Live progress reporting for run_experiment and Campaign::run.
//
// A multi-hour n=1000 campaign (~652 s per rep) runs dark today; this
// reporter turns the rep loop's completion events into wall-clock
// throttled heartbeats — reps done/total, reps/sec, ETA, the labels of
// the experiments currently executing, and resident set size — without
// ever touching the simulated clock or any RNG stream (the sim layer
// has no idea it exists; see the determinism tests in
// tests/obs/observability_determinism_test.cpp).
//
// Output modes:
//  - JSONL (default for --progress-out=FILE): one self-describing
//    record per emission — {"type":"heartbeat",...} while running and a
//    final {"type":"done",...} — so a dashboard can tail the file.
//  - Human (default for stderr): a single "\r"-rewritten status line.
//
// Hot-path cost: rep_done() is one relaxed fetch_add, one clock read,
// and one CAS attempt on the next-emission deadline; the losing threads
// do nothing else. Emission itself takes a mutex but happens at most
// once per min_interval_sec.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/profiler.hpp"  // ProfClock

namespace hetsched {

struct ProgressOptions {
  /// Minimum wall-clock seconds between heartbeats.
  double min_interval_sec = 1.0;
  /// JSONL records (true) vs "\r"-rewritten human one-liners (false).
  bool jsonl = true;
  /// Injectable ns clock for tests; nullptr = steady_clock.
  ProfClock clock = nullptr;
};

class ProgressReporter {
 public:
  /// Kept as a nested alias for call-site readability.
  using Options = ProgressOptions;

  ProgressReporter(std::ostream& out, Options options = {});
  ~ProgressReporter();  // calls finish()

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  /// Raises the denominator (reps_total). The reporter's owner calls
  /// this before the work starts — the CLI adds config.reps before one
  /// run_experiment; Campaign::run adds every entry's reps up front so
  /// the ETA covers the whole campaign. run_experiment itself never
  /// touches the denominator (it cannot know whether an enclosing
  /// campaign already registered it).
  void expect_reps(std::uint64_t reps);

  /// Marks `label` active (shown in heartbeats) until ..._finished.
  void experiment_started(const std::string& label);
  void experiment_finished(const std::string& label);

  /// One repetition completed. Thread-safe, wait-free unless this call
  /// wins the throttle CAS (then it formats and writes one record).
  void rep_done();

  /// Emits the final {"type":"done"} record (or a terminal newline in
  /// human mode) exactly once. Safe to call repeatedly; the destructor
  /// calls it too.
  void finish();

  std::uint64_t reps_done() const noexcept {
    return reps_done_.load(std::memory_order::relaxed);
  }
  std::uint64_t reps_total() const noexcept {
    return reps_total_.load(std::memory_order::relaxed);
  }
  /// Number of records actually written (tests pin throttling with it).
  std::uint64_t emissions() const noexcept {
    return emissions_.load(std::memory_order::relaxed);
  }
  /// Wall nanoseconds this reporter spent formatting + writing — its
  /// own overhead, reported in the final record.
  std::uint64_t emit_ns() const noexcept {
    return emit_ns_.load(std::memory_order::relaxed);
  }

  /// Resident set size in MiB (VmRSS on Linux; 0 when unavailable).
  /// Exposed for tests and the analyze report.
  static double rss_mib();

 private:
  std::uint64_t now_ns() const;
  void emit(bool final_record);

  std::ostream& out_;
  Options options_;
  std::uint64_t interval_ns_;
  std::uint64_t start_ns_;

  std::atomic<std::uint64_t> reps_done_{0};
  std::atomic<std::uint64_t> reps_total_{0};
  std::atomic<std::uint64_t> next_emit_ns_;
  std::atomic<std::uint64_t> emissions_{0};
  std::atomic<std::uint64_t> emit_ns_{0};
  std::atomic<bool> finished_{false};

  std::mutex mutex_;                 // guards out_ and active_
  std::vector<std::string> active_;  // labels, insertion order
};

}  // namespace hetsched
