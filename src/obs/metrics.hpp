// Metrics primitives: counters, gauges, fixed-bucket histograms, and a
// name-keyed registry.
//
// Mutation is lock-free (relaxed atomics) so instruments can be shared
// across the deterministic parallel replication loop of
// core/experiment.cpp without serializing it; the registry itself takes
// a mutex only on get-or-create, and callers are expected to cache the
// returned references on hot paths. Export iterates names in sorted
// order, so a snapshot of a quiesced registry is deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace hetsched {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc() noexcept { add(1); }
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order::relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order::relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order::relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order::relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations v with
/// v <= upper_bounds[i] (first matching bound); one implicit overflow
/// bucket catches the rest. Bounds are validated strictly increasing.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  /// Bucket a value would land in (same mapping observe uses); lets a
  /// single-writer shard pre-aggregate into a plain array and merge()
  /// once instead of paying an atomic RMW per observation.
  std::size_t bucket_index(double v) const noexcept;

  /// Folds pre-aggregated per-bucket counts into the histogram.
  /// `bucket_counts` must have size upper_bounds().size() + 1 (overflow
  /// last); `sum_delta` is the sum of the merged observations.
  void merge(const std::vector<std::uint64_t>& bucket_counts,
             double sum_delta);

  /// Interpolated quantile estimate for q in [0, 1] (throws outside).
  /// Assumes non-negative observations spread uniformly within each
  /// bucket (the Prometheus convention): the first bucket interpolates
  /// from 0 and a quantile landing in the overflow bucket returns the
  /// last bound (the histogram cannot resolve beyond it). NaN when the
  /// histogram is empty. Reads relaxed — quiesce before reading, like
  /// the other snapshot accessors.
  double quantile(double q) const;

  const std::vector<double>& upper_bounds() const noexcept { return bounds_; }
  /// Per-bucket counts; size = upper_bounds().size() + 1 (overflow last).
  std::vector<std::uint64_t> counts() const;
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order::relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order::relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Get-or-create store of named instruments. References returned stay
/// valid for the registry's lifetime (instruments are heap-held and
/// never removed).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Re-requesting an existing histogram ignores `upper_bounds`;
  /// requesting a name already used by another instrument kind throws.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  /// Snapshot accessors (sorted by name). Values are read relaxed, so
  /// only quiesced registries snapshot deterministically.
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> histograms() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Writes one compact JSON object:
/// {"counters":{...},"gauges":{...},"histograms":{name:{bounds,counts,
/// count,sum}}}. Keys are sorted; suitable as a JSON-lines record.
void write_metrics_json(std::ostream& out, const MetricsRegistry& registry);

}  // namespace hetsched
