#include "obs/progress.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#if defined(__linux__)
#include <fstream>
#else
#include <sys/resource.h>
#endif

#include "common/json.hpp"

namespace hetsched {

ProgressReporter::ProgressReporter(std::ostream& out, Options options)
    : out_(out),
      options_(options),
      interval_ns_(static_cast<std::uint64_t>(
          std::max(0.0, options.min_interval_sec) * 1e9)),
      start_ns_(now_ns()),
      next_emit_ns_(start_ns_ + interval_ns_) {}

ProgressReporter::~ProgressReporter() { finish(); }

std::uint64_t ProgressReporter::now_ns() const {
  return options_.clock != nullptr ? options_.clock() : prof_default_clock();
}

void ProgressReporter::expect_reps(std::uint64_t reps) {
  reps_total_.fetch_add(reps, std::memory_order::relaxed);
}

void ProgressReporter::experiment_started(const std::string& label) {
  std::lock_guard<std::mutex> lock(mutex_);
  active_.push_back(label);
}

void ProgressReporter::experiment_finished(const std::string& label) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = std::find(active_.begin(), active_.end(), label);
  if (it != active_.end()) active_.erase(it);
}

void ProgressReporter::rep_done() {
  reps_done_.fetch_add(1, std::memory_order::relaxed);
  const std::uint64_t now = now_ns();
  std::uint64_t deadline = next_emit_ns_.load(std::memory_order::relaxed);
  if (now < deadline) return;
  // One winner per interval; losers return without touching the stream.
  if (!next_emit_ns_.compare_exchange_strong(deadline, now + interval_ns_,
                                             std::memory_order::relaxed)) {
    return;
  }
  emit(/*final_record=*/false);
}

void ProgressReporter::finish() {
  if (finished_.exchange(true, std::memory_order::acq_rel)) return;
  emit(/*final_record=*/true);
}

double ProgressReporter::rss_mib() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::uint64_t kib = 0;
      if (std::sscanf(line.c_str(), "VmRSS: %lu", &kib) == 1) {
        return static_cast<double>(kib) / 1024.0;
      }
    }
  }
  return 0.0;
#else
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  // ru_maxrss is KiB on Linux, bytes on macOS; this branch is non-Linux.
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#endif
}

void ProgressReporter::emit(bool final_record) {
  const std::uint64_t emit_start = now_ns();
  const double wall_sec =
      static_cast<double>(emit_start - start_ns_) / 1e9;
  const std::uint64_t done = reps_done_.load(std::memory_order::relaxed);
  const std::uint64_t total = reps_total_.load(std::memory_order::relaxed);
  const double rate = wall_sec > 0.0 ? done / wall_sec : 0.0;
  const double eta_sec =
      (rate > 0.0 && total > done) ? (total - done) / rate : 0.0;

  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.jsonl) {
    std::ostringstream line;
    {
      JsonWriter json(line, /*pretty=*/false);
      json.begin_object();
      json.field("type", final_record ? "done" : "heartbeat");
      json.field("wall_sec", wall_sec);
      json.field("reps_done", done);
      json.field("reps_total", total);
      json.field("reps_per_sec", rate);
      json.field("eta_sec", eta_sec);
      json.key("active");
      json.begin_array();
      for (const std::string& label : active_) json.value(label);
      json.end_array();
      json.field("rss_mib", rss_mib());
      if (final_record) {
        json.field("emissions", emissions_.load(std::memory_order::relaxed));
        json.field("emit_ns", emit_ns_.load(std::memory_order::relaxed));
      }
      json.end_object();
    }
    out_ << line.str() << '\n';
  } else {
    std::ostringstream line;
    line << "\r[hetsched] " << done << "/" << total << " reps  "
         << std::lround(rate * 10.0) / 10.0 << " reps/s  eta "
         << std::lround(eta_sec) << "s  rss "
         << std::lround(rss_mib()) << " MiB";
    if (!active_.empty()) {
      line << "  [" << active_.front();
      if (active_.size() > 1) line << " +" << (active_.size() - 1);
      line << "]";
    }
    out_ << line.str();
    if (final_record) out_ << '\n';
  }
  out_.flush();
  emissions_.fetch_add(1, std::memory_order::relaxed);
  emit_ns_.fetch_add(now_ns() - emit_start, std::memory_order::relaxed);
}

}  // namespace hetsched
