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
// fooled by runner speed. --large additionally runs the full
// N/l = 1000 matrix-multiplication instances (minutes, not for CI).
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
#include "runtime/thread_pool.hpp"
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

/// Raw binary-heap churn, the host-speed unit: ns per push+pop at a
/// fixed depth (mirrors BM_HeapBaseline in micro_scheduler_overhead).
double heap_ns_per_op() {
  using Entry = std::pair<double, std::uint64_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  constexpr int kDepth = 64;
  std::uint64_t seq = 0;
  double t = 0.0;
  for (int i = 0; i < kDepth; ++i) heap.push({t += 0.7, seq++});
  constexpr std::uint64_t kOps = 10'000'000;
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
  for (std::uint64_t k = 0; k < 7; ++k) {
    pool.reset();
    Rng rng(derive_stream(k, "perf_smoke.pool"));
    const double start = now_sec();
    while (!pool.empty()) sink += pool.pop_random_unindexed(rng);
    samples.push_back((now_sec() - start) * 1e9 / static_cast<double>(kIds));
  }
  if (sink == 0) std::cerr << "";
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Master-side ns/request: drain a fresh instance to exhaustion through
/// the request path, timing only the drain.
double request_ns(bool outer, const std::string& name) {
  const std::uint32_t workers = 16;
  std::uint64_t requests = 0;
  double elapsed = 0.0;
  std::uint64_t seed = 0;
  std::uint64_t sink = 0;
  while (elapsed < 0.3) {
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

/// Master-side ns/request for the pure data-aware strategies with an
/// intra-rep lane team. Measured under a forced 16-slot parallelism
/// budget so the requested lanes are actually granted on any runner;
/// lanes=1 is the zero-cost control the CI gate compares against the
/// plain request_ns numbers.
double lane_request_ns(bool outer, const std::string& name,
                       std::uint32_t lanes) {
  const std::uint32_t workers = 16;
  std::uint64_t requests = 0;
  double elapsed = 0.0;
  std::uint64_t seed = 0;
  std::uint64_t sink = 0;
  while (elapsed < 0.3) {
    std::unique_ptr<Strategy> strategy;
    if (outer) {
      OuterStrategyOptions options;
      options.lanes = lanes;
      strategy =
          make_outer_strategy(name, OuterConfig{100}, workers, ++seed, options);
    } else {
      MatmulStrategyOptions options;
      options.lanes = lanes;
      strategy =
          make_matmul_strategy(name, MatmulConfig{40}, workers, ++seed, options);
    }
    strategy->prepare_lanes();
    std::uint32_t next_worker = 0;
    Assignment scratch;
    const double start = now_sec();
    while (strategy->on_request(next_worker, scratch)) {
      sink += scratch.task_count();  // scalars + run-encoded grants
      ++requests;
      next_worker = (next_worker + 1) % workers;
    }
    elapsed += now_sec() - start;
  }
  if (sink == 0) std::cerr << "";
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
  const std::string out_path = args.get("out", "BENCH_PERF.json");

  const double heap = heap_ns_per_op();
  std::cerr << "# heap baseline: " << heap << " ns/op\n";
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

  const std::vector<std::string> outer_names = {
      "RandomOuter", "SortedOuter", "DynamicOuter", "DynamicOuter2Phases"};
  const std::vector<std::string> matmul_names = {
      "RandomMatrix", "SortedMatrix", "DynamicMatrix", "DynamicMatrix2Phases"};
  std::vector<std::pair<std::string, double>> request;
  for (const auto& name : outer_names) {
    request.emplace_back(name, request_ns(true, name));
    std::cerr << "# request " << name << ": " << request.back().second
              << " ns\n";
  }
  for (const auto& name : matmul_names) {
    request.emplace_back(name, request_ns(false, name));
    std::cerr << "# request " << name << ": " << request.back().second
              << " ns\n";
  }

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

  // Lane-team scaling on the request drain (forced budget so lanes
  // grant everywhere; restored right after). lanes=1 doubles as the
  // zero-cost control: CI pins it against the plain request numbers.
  // On a 1-hardware-thread host the lanes>1 rows would only measure
  // contention that no real deployment pays, so they are emitted as
  // explicit "skipped" markers instead of misleading numbers; the CI
  // gate compares only keys present in both baseline and run.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::vector<std::pair<std::string, double>> lane_request;
  std::vector<std::string> lane_skipped;
  set_parallel_budget_capacity(16);
  for (const bool outer : {true, false}) {
    const std::string name = outer ? "DynamicOuter" : "DynamicMatrix";
    for (const std::uint32_t lanes : {1u, 2u, 4u}) {
      const std::string row = name + ".lanes" + std::to_string(lanes);
      if (lanes > 1 && hw_threads <= 1) {
        lane_skipped.push_back(row);
        std::cerr << "# lane request " << row
                  << ": skipped (1 hardware thread)\n";
        continue;
      }
      lane_request.emplace_back(row, lane_request_ns(outer, name, lanes));
      std::cerr << "# lane request " << lane_request.back().first << ": "
                << lane_request.back().second << " ns\n";
    }
  }
  set_parallel_budget_capacity(0);

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
    const auto run_large = [&](const char* name, std::uint32_t lanes) {
      ExperimentConfig config;
      config.kernel = Kernel::kMatmul;
      config.strategy = name;
      config.n = 1000;
      config.p = 100;
      config.reps = 1;
      config.parallelism = 1;
      config.lanes = lanes;
      config.seed = 42;
      if (lanes > 1) set_parallel_budget_capacity(16);
      const double start = now_sec();
      const ExperimentResult result = run_experiment(config);
      const double wall = now_sec() - start;
      if (lanes > 1) set_parallel_budget_capacity(0);
      const std::string label =
          lanes > 1 ? std::string(name) + ".lanes" + std::to_string(lanes)
                    : std::string(name);
      large_norm.emplace_back(label, result.normalized.mean);
      large_wall.emplace_back(label, wall);
      std::cerr << "# large mm_n1000 " << label
                << ": normalized=" << result.normalized.mean
                << " wall=" << wall << " s, peak rss " << peak_rss_mb()
                << " MB\n";
    };
    // --large-random=0 skips the slowest row (~11 min; its code path
    // has no lane dependence) when only the laned rows are needed.
    if (args.get_bool("large-random", true)) run_large("RandomMatrix", 1);
    run_large("DynamicMatrix2Phases", 1);
    // The lanes=4 rerun must report the identical normalized volume —
    // the whole point of the deterministic lane team — with lower wall
    // time wherever the host actually has the cores.
    run_large("DynamicMatrix2Phases", 4);
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  JsonWriter json(out);
  json.begin_object();
  json.field("schema", "hetsched-perf-smoke/1");
  json.field("hardware_concurrency", static_cast<std::uint64_t>(hw_threads));
  json.field("heap_ns_per_op", heap);
  json.field("flat_engine_ns_per_event", engine);
  json.field("flat_engine_ns_per_event_pointwise", engine_pointwise);
  json.field("flat_engine_ns_per_event_random", engine_random);
  json.field("pool.pop_random_unindexed_ns.n1e6", pool_pop);
  json.key("request_ns");
  json.begin_object();
  for (const auto& [name, ns] : request) json.field(name, ns);
  json.end_object();
  json.key("reps_per_sec");
  json.begin_object();
  for (const auto& [name, r] : reps) json.field(name, r);
  json.end_object();
  json.key("lane_request_ns");
  json.begin_object();
  for (const auto& [name, ns] : lane_request) json.field(name, ns);
  for (const auto& name : lane_skipped) json.field(name, "skipped");
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
  for (const auto& [name, ns] : request) json.field("request." + name, ns / heap);
  for (const auto& [name, r] : reps) {
    json.field("rep_cost." + name, 1e9 / (r * heap));
  }
  for (const auto& [name, ns] : lane_request) {
    json.field("lane.request_ns." + name, ns / heap);
  }
  // Telemetry-on rep cost: gated against the plain fig10 number above,
  // so profiler + progress can never silently grow past the noise
  // floor (the structural < 1% gate lives in tests/obs/profiler_test).
  json.field("profile.rep_cost.fig10_mm_n100.DynamicMatrix2Phases",
             1e9 / (profiled.reps_per_sec * heap));
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
