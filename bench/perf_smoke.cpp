// Machine-readable performance smoke: one JSON (BENCH_PERF.json) with
// the numbers future PRs regress against.
//
// Sections:
//   heap        - raw binary-heap push/pop ns/op (host-speed calibration,
//                 the same unit bench/micro_scheduler_overhead uses)
//   engine      - flat-engine ns per task on a DynamicOuter run (batched
//                 events, ~12 tasks each) and ns per event on SortedOuter
//                 and RandomOuter runs (one task per request, so one
//                 event per task)
//   pool        - ns per random pop draining a 10^6-id pool
//   request_ns  - master-side ns/request for the paper's eight strategies
//   reps_per_sec- single-thread replication throughput on fig05-sized
//                 (outer N/l = 1000) and fig10-sized (matmul N/l = 100)
//                 workloads
//   large_pool  - peak RSS with a 10^9-id task pool resident
//
// Every ns metric is also reported as a ratio over the heap baseline so
// CI can compare against bench/baselines/perf_smoke.json without being
// fooled by runner speed. The heap unit and the gated request rows are
// medians of kSamples interleaved rounds (one heap sample, then one
// sample of every request row), each written with its interquartile
// range under a sibling "_iqr" key; a request row's ratio is the median
// of its per-round ratios over that round's heap sample. --large
// additionally runs the full N/l = 1000 matrix-multiplication instances
// (minutes, not for CI).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <queue>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/task_pool.hpp"
#include "matmul/matmul_factory.hpp"
#include "obs/profiler.hpp"
#include "obs/progress.hpp"
#include "outer/outer_factory.hpp"
#include "platform/platform.hpp"
#include "platform/speed_model.hpp"
#include "sim/engine.hpp"

namespace {

using namespace hetsched;

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Rounds per gated row (see the header comment).
constexpr std::uint64_t kSamples = 7;

struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};

/// Median and interquartile range, quartiles linearly interpolated.
Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {quantile(0.5), quantile(0.75) - quantile(0.25)};
}

/// Raw binary-heap churn, the host-speed unit: ns per push+pop at a
/// fixed depth (mirrors BM_HeapBaseline in micro_scheduler_overhead).
/// One sample: 2 * 10^6 ops, about 0.2 s.
double heap_ns_per_op() {
  using Entry = std::pair<double, std::uint64_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  constexpr int kDepth = 64;
  std::uint64_t seq = 0;
  double t = 0.0;
  for (int i = 0; i < kDepth; ++i) heap.push({t += 0.7, seq++});
  constexpr std::uint64_t kOps = 2'000'000;
  volatile std::uint64_t sink = 0;
  const double start = now_sec();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const Entry top = heap.top();
    heap.pop();
    heap.push({top.first + 1.3, seq++});
    sink = heap.size();
  }
  (void)sink;
  return (now_sec() - start) * 1e9 / static_cast<double>(kOps);
}

/// Flat-engine ns per completed task over whole simulate() calls of an
/// outer strategy on `platform`, strategy requests included.
double flat_engine_ns_per_task(const std::string& name, std::uint32_t n,
                               const Platform& platform) {
  const auto p = static_cast<std::uint32_t>(platform.size());
  std::uint64_t tasks = 0;
  double elapsed = 0.0;
  std::uint64_t seed = 0;
  while (elapsed < 0.5) {
    auto strategy = make_outer_strategy(name, OuterConfig{n}, p, ++seed);
    const double start = now_sec();
    const SimResult result = simulate(*strategy, platform);
    elapsed += now_sec() - start;
    tasks += result.total_tasks_done;
  }
  return elapsed * 1e9 / static_cast<double>(tasks);
}

/// DynamicOuter hands out about 12 tasks per non-empty request at this
/// shape (mean over seeds 1-20) and the untraced engine folds each
/// assignment into one batch event, so despite the key name this is a
/// per-task figure.
double flat_engine_ns_per_event() {
  return flat_engine_ns_per_task("DynamicOuter", 60,
                                 Platform({10, 15, 20, 25, 30, 40, 50, 80}));
}

/// SortedOuter grants one task per request, so every event is one task:
/// the shape of the figures' Random/Sorted baselines, at fig05's
/// p = 100.
double flat_engine_ns_per_event_pointwise() {
  Rng rng(derive_stream(1, "perf_smoke.pointwise"));
  return flat_engine_ns_per_task(
      "SortedOuter", 300,
      make_platform(UniformIntervalSpeeds(10.0, 100.0), 100, rng));
}

/// RandomOuter at fig05's N/l = 1000 (a 10^6-id pool, 4 MB of ids,
/// past L2) and p = 100: one random pop per event, the shape of the
/// figures' RandomOuter/RandomMatrix baselines, where the pool's
/// look-ahead prefetch hides the pop's cache miss behind engine work.
double flat_engine_ns_per_event_random() {
  Rng rng(derive_stream(1, "perf_smoke.pointwise"));
  return flat_engine_ns_per_task(
      "RandomOuter", 1000,
      make_platform(UniformIntervalSpeeds(10.0, 100.0), 100, rng));
}

/// ns per TaskPool::pop_random_unindexed draining a 10^6-id pool with
/// nothing between pops; median of 7 drains. A bare loop already
/// overlaps the independent misses of consecutive pops out of order,
/// so this row shows the pop's own instruction cost (including the
/// look-ahead draw), not the miss the engine rows expose.
double pool_pop_random_unindexed_ns() {
  constexpr std::uint64_t kIds = 1'000'000;
  TaskPool pool(kIds);
  std::vector<double> samples;
  std::uint64_t sink = 0;
  for (std::uint64_t k = 0; k < kSamples; ++k) {
    pool.reset();
    Rng rng(derive_stream(k, "perf_smoke.pool"));
    const double start = now_sec();
    while (!pool.empty()) sink += pool.pop_random_unindexed(rng);
    samples.push_back((now_sec() - start) * 1e9 / static_cast<double>(kIds));
  }
  if (sink == 0) std::cerr << "";
  return spread_of(samples).median;
}

/// Master-side ns/request: drain fresh instances to exhaustion through
/// the request path, timing only the drains. One sample: the same seed
/// sequence every time, drains repeated until 0.1 s is spent.
double request_ns(bool outer, const std::string& name) {
  const std::uint32_t workers = 16;
  std::uint64_t requests = 0;
  double elapsed = 0.0;
  std::uint64_t seed = 0;
  std::uint64_t sink = 0;
  while (elapsed < 0.1) {
    std::unique_ptr<Strategy> strategy;
    if (outer) {
      OuterStrategyOptions options;
      options.phase2_fraction = 0.02;
      strategy =
          make_outer_strategy(name, OuterConfig{100}, workers, ++seed, options);
    } else {
      MatmulStrategyOptions options;
      options.phase2_fraction = 0.05;
      strategy =
          make_matmul_strategy(name, MatmulConfig{40}, workers, ++seed, options);
    }
    std::uint32_t next_worker = 0;
    Assignment scratch;  // the engines' steady-state path: one reused buffer
    const double start = now_sec();
    while (strategy->on_request(next_worker, scratch)) {
      // task_count() sums scalars AND run-encoded grants, so the sink
      // observes the full assignment on the run-emitting strategies.
      sink += scratch.task_count();
      ++requests;
      next_worker = (next_worker + 1) % workers;
    }
    elapsed += now_sec() - start;
  }
  if (sink == 0) std::cerr << "";  // keep the accumulator observable
  return elapsed * 1e9 / static_cast<double>(requests);
}

/// Resident cost of a 10^9-id task pool (matmul at N/l = 1000): RSS
/// delta after construction plus a short op mix to touch the layout.
double large_pool_rss_delta_mb() {
  const double before = peak_rss_mb();
  TaskPool pool(1'000'000'000ull);
  Rng rng(1);
  for (int i = 0; i < 1'000'000; ++i) pool.pop_random(rng);
  for (int i = 0; i < 1'000'000; ++i) pool.pop_first();
  volatile std::uint64_t sink = pool.size();
  (void)sink;
  return peak_rss_mb() - before;
}

/// Single-thread replication throughput for one figure-sized workload.
double workload_reps_per_sec(Kernel kernel, const std::string& strategy,
                             std::uint32_t n, std::uint32_t p,
                             std::uint32_t reps) {
  ExperimentConfig config;
  config.kernel = kernel;
  config.strategy = strategy;
  config.n = n;
  config.p = p;
  config.reps = reps;
  config.parallelism = 1;
  config.seed = 42;
  const ExperimentResult result = run_experiment(config);
  return result.reps_per_sec;
}

/// Same fig10-sized workload with the flight recorder attached
/// (wall-clock profiler + progress heartbeats into a sink). The
/// resulting rep-cost ratio is a required key in the CI perf gate, so
/// telemetry cost regressions fail the build like any other slowdown.
struct ProfiledWorkload {
  double reps_per_sec = 0.0;
  ProfileTotals profile;
};

ProfiledWorkload profiled_fig10_workload(std::uint32_t reps) {
  ExperimentConfig config;
  config.kernel = Kernel::kMatmul;
  config.strategy = "DynamicMatrix2Phases";
  config.n = 100;
  config.p = 100;
  config.reps = reps;
  config.parallelism = 1;
  config.seed = 42;
  config.profile = true;
  std::ostringstream sink;
  ProgressReporter reporter(sink, {});
  reporter.expect_reps(config.reps);
  config.progress = &reporter;
  const ExperimentResult result = run_experiment(config);
  return {result.reps_per_sec, result.profile};
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::require_flags(args, {"large", "out"});
  const std::string out_path = args.get("out", "BENCH_PERF.json");

  // Interleaved rounds: a heap sample, then one sample of every request
  // row, so drift in host speed lands on the unit and the rows alike.
  struct RequestRow {
    bool outer;
    std::string name;
    std::vector<double> ns, ratio;  // one entry per round
  };
  std::vector<RequestRow> rows;
  for (const char* name : {"RandomOuter", "SortedOuter", "DynamicOuter",
                           "DynamicOuter2Phases"}) {
    rows.push_back({true, name, {}, {}});
  }
  for (const char* name : {"RandomMatrix", "SortedMatrix", "DynamicMatrix",
                           "DynamicMatrix2Phases"}) {
    rows.push_back({false, name, {}, {}});
  }
  std::vector<double> heap_samples;
  for (std::uint64_t round = 0; round < kSamples; ++round) {
    const double unit = heap_ns_per_op();
    heap_samples.push_back(unit);
    for (RequestRow& row : rows) {
      row.ns.push_back(request_ns(row.outer, row.name));
      row.ratio.push_back(row.ns.back() / unit);
    }
  }
  const Spread heap_spread = spread_of(heap_samples);
  const double heap = heap_spread.median;
  std::cerr << "# heap baseline: " << heap << " ns/op (IQR "
            << heap_spread.iqr << ")\n";
  for (const RequestRow& row : rows) {
    const Spread ns = spread_of(row.ns);
    std::cerr << "# request " << row.name << ": " << ns.median << " ns (IQR "
              << ns.iqr << ")\n";
  }

  const double engine = flat_engine_ns_per_event();
  std::cerr << "# flat engine (batched): " << engine << " ns/task\n";
  const double engine_pointwise = flat_engine_ns_per_event_pointwise();
  std::cerr << "# flat engine (one task per event): " << engine_pointwise
            << " ns/event\n";
  const double engine_random = flat_engine_ns_per_event_random();
  std::cerr << "# flat engine (one random pop per event, 10^6 ids): "
            << engine_random << " ns/event\n";
  const double pool_pop = pool_pop_random_unindexed_ns();
  std::cerr << "# pool pop_random_unindexed (10^6 ids): " << pool_pop
            << " ns\n";

  // fig05-sized (outer N/l = 1000) and fig10-sized (matmul N/l = 100)
  // single-thread replication throughput.
  std::vector<std::pair<std::string, double>> reps;
  const auto reps_of = [&](const char* label, Kernel kernel,
                           const std::string& strategy, std::uint32_t n) {
    const double r = workload_reps_per_sec(kernel, strategy, n, 100, 2);
    reps.emplace_back(std::string(label) + "." + strategy, r);
    std::cerr << "# reps/sec " << reps.back().first << ": " << r << "\n";
  };
  reps_of("fig05_outer_n1000", Kernel::kOuter, "RandomOuter", 1000);
  reps_of("fig05_outer_n1000", Kernel::kOuter, "DynamicOuter2Phases", 1000);
  reps_of("fig10_mm_n100", Kernel::kMatmul, "RandomMatrix", 100);
  reps_of("fig10_mm_n100", Kernel::kMatmul, "DynamicMatrix2Phases", 100);

  const ProfiledWorkload profiled = profiled_fig10_workload(2);
  std::cerr << "# reps/sec fig10_mm_n100.DynamicMatrix2Phases (profiled): "
            << profiled.reps_per_sec << "\n";

  const double pool_rss = large_pool_rss_delta_mb();
  std::cerr << "# large pool (10^9 ids) rss delta: " << pool_rss << " MB\n";

  // --large: the full N/l = 1000 matrix-multiplication instances (10^9
  // tasks each) — the run the compact pool exists for. Minutes of wall
  // time; excluded from CI, results land in EXPERIMENTS.md.
  std::vector<std::pair<std::string, double>> large_norm;
  std::vector<std::pair<std::string, double>> large_wall;
  if (args.get_bool("large", false)) {
    const auto run_large = [&](const char* name) {
      ExperimentConfig config;
      config.kernel = Kernel::kMatmul;
      config.strategy = name;
      config.n = 1000;
      config.p = 100;
      config.reps = 1;
      config.parallelism = 1;
      config.seed = 42;
      const double start = now_sec();
      const ExperimentResult result = run_experiment(config);
      const double wall = now_sec() - start;
      large_norm.emplace_back(name, result.normalized.mean);
      large_wall.emplace_back(name, wall);
      std::cerr << "# large mm_n1000 " << name
                << ": normalized=" << result.normalized.mean
                << " wall=" << wall << " s, peak rss " << peak_rss_mb()
                << " MB\n";
    };
    run_large("RandomMatrix");
    run_large("DynamicMatrix2Phases");
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  JsonWriter json(out);
  json.begin_object();
  json.field("schema", "hetsched-perf-smoke/1");
  json.field("hardware_concurrency",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.field("samples", kSamples);
  json.field("heap_ns_per_op", heap);
  json.field("heap_ns_per_op_iqr", heap_spread.iqr);
  json.field("flat_engine_ns_per_event", engine);
  json.field("flat_engine_ns_per_event_pointwise", engine_pointwise);
  json.field("flat_engine_ns_per_event_random", engine_random);
  json.field("pool.pop_random_unindexed_ns.n1e6", pool_pop);
  json.key("request_ns");
  json.begin_object();
  for (const RequestRow& row : rows) {
    json.field(row.name, spread_of(row.ns).median);
  }
  json.end_object();
  json.key("request_ns_iqr");
  json.begin_object();
  for (const RequestRow& row : rows) {
    json.field(row.name, spread_of(row.ns).iqr);
  }
  json.end_object();
  json.key("reps_per_sec");
  json.begin_object();
  for (const auto& [name, r] : reps) json.field(name, r);
  json.end_object();
  // Host-independent ratios for the CI gate: ns metrics over the heap
  // baseline; throughput as heap-ops-per-rep (lower = faster).
  json.key("ratios_vs_heap");
  json.begin_object();
  json.field("flat_engine_ns_per_event", engine / heap);
  // Recorded, not gated: bench/baselines/perf_smoke.json has no such
  // key, and the gate compares only keys present in the baseline.
  json.field("flat_engine_ns_per_event_pointwise", engine_pointwise / heap);
  json.field("flat_engine_ns_per_event_random", engine_random / heap);
  json.field("pool.pop_random_unindexed_ns.n1e6", pool_pop / heap);
  for (const RequestRow& row : rows) {
    json.field("request." + row.name, spread_of(row.ratio).median);
  }
  for (const auto& [name, r] : reps) {
    json.field("rep_cost." + name, 1e9 / (r * heap));
  }
  // Telemetry-on rep cost: gated against the plain fig10 number above,
  // so profiler + progress can never silently grow past the noise
  // floor (the structural < 1% gate lives in tests/obs/profiler_test).
  json.field("profile.rep_cost.fig10_mm_n100.DynamicMatrix2Phases",
             1e9 / (profiled.reps_per_sec * heap));
  json.end_object();
  json.key("ratios_vs_heap_iqr");
  json.begin_object();
  for (const RequestRow& row : rows) {
    json.field("request." + row.name, spread_of(row.ratio).iqr);
  }
  json.end_object();
  // Per-site wall totals of the profiled run, for eyeballing where a
  // telemetry regression landed (same site taxonomy as the CLI).
  json.key("profile");
  write_profile_json(json, profiled.profile);
  json.key("large_pool");
  json.begin_object();
  json.field("capacity_ids", static_cast<std::uint64_t>(1'000'000'000ull));
  json.field("rss_delta_mb", pool_rss);
  json.end_object();
  if (!large_norm.empty()) {
    json.key("large_mm_n1000");
    json.begin_object();
    for (std::size_t i = 0; i < large_norm.size(); ++i) {
      json.key(large_norm[i].first);
      json.begin_object();
      json.field("normalized_volume", large_norm[i].second);
      json.field("wall_sec", large_wall[i].second);
      json.end_object();
    }
    json.end_object();
  }
  json.field("peak_rss_mb", peak_rss_mb());
  json.end_object();
  out << "\n";
  std::cerr << "# wrote " << out_path << "\n";
  return 0;
}
