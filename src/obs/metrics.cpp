#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/json.hpp"

namespace hetsched {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: need at least one bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "Histogram: bucket bounds must be strictly increasing");
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) noexcept {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order::relaxed);
  count_.fetch_add(1, std::memory_order::relaxed);
  double expected = sum_.load(std::memory_order::relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order::relaxed)) {
  }
}

std::size_t Histogram::bucket_index(double v) const noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::merge(const std::vector<std::uint64_t>& bucket_counts,
                      double sum_delta) {
  if (bucket_counts.size() != bounds_.size() + 1) {
    throw std::invalid_argument(
        "Histogram::merge: bucket_counts size must be bounds + 1");
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    if (bucket_counts[i] == 0) continue;
    buckets_[i].fetch_add(bucket_counts[i], std::memory_order::relaxed);
    total += bucket_counts[i];
  }
  count_.fetch_add(total, std::memory_order::relaxed);
  double expected = sum_.load(std::memory_order::relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + sum_delta,
                                     std::memory_order::relaxed)) {
  }
}

double Histogram::quantile(double q) const {
  if (!(q >= 0.0) || q > 1.0) {
    throw std::invalid_argument("Histogram::quantile: q must be in [0, 1]");
  }
  const std::vector<std::uint64_t> counts = this->counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();

  // Rank of the target observation (1-based); q = 0 means the first.
  const double rank = std::max(1.0, q * static_cast<double>(total));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const std::uint64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= rank) {
      if (i == bounds_.size()) return bounds_.back();  // overflow bucket
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double within =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * within;
    }
    cumulative = next;
  }
  return bounds_.back();
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order::relaxed);
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (gauges_.count(name) != 0 || histograms_.count(name) != 0) {
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already registered with another kind");
  }
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(name) != 0 || histograms_.count(name) != 0) {
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already registered with another kind");
  }
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0) {
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already registered with another kind");
  }
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counters()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>>
MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

void write_metrics_json(std::ostream& out, const MetricsRegistry& registry) {
  JsonWriter json(out, /*pretty=*/false);
  json.begin_object();
  // Typed like the sampler's JSONL records so a concatenated
  // meta/sample/snapshot stream stays uniformly dispatchable.
  json.field("type", "snapshot");
  json.key("counters");
  json.begin_object();
  for (const auto& [name, v] : registry.counters()) json.field(name, v);
  json.end_object();
  json.key("gauges");
  json.begin_object();
  for (const auto& [name, v] : registry.gauges()) json.field(name, v);
  json.end_object();
  json.key("histograms");
  json.begin_object();
  for (const auto& [name, h] : registry.histograms()) {
    json.key(name);
    json.begin_object();
    json.key("bounds");
    json.begin_array();
    for (const double b : h->upper_bounds()) json.value(b);
    json.end_array();
    json.key("counts");
    json.begin_array();
    for (const std::uint64_t c : h->counts()) json.value(c);
    json.end_array();
    json.field("count", h->count());
    json.field("sum", h->sum());
    if (h->count() > 0) {
      // SLA percentiles (interpolated; see Histogram::quantile).
      json.field("p50", h->quantile(0.50));
      json.field("p95", h->quantile(0.95));
      json.field("p99", h->quantile(0.99));
    }
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

}  // namespace hetsched
