// Ablation: the best known *static* allocation (column-based rectangle
// partition, a 7/4-approximation requiring full knowledge of the
// speeds, Section 3.2) versus the paper's speed-agnostic dynamic
// strategies. Shows what the dynamic schedulers give up — and that the
// two-phase scheduler closes most of the gap without knowing speeds.
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "platform/platform.hpp"
#include "static_part/column_partition.hpp"

int main(int argc, char** argv) {
  using namespace hetsched;
  const CliArgs args(argc, argv);
  bench::require_flags(args, {"n", "p", "reps", "seed"});
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 100));
  const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 10));
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto ps = bench::to_u32(args.get_int_list("p", {10, 20, 50, 100, 200}));

  bench::print_header(
      "Ablation", "static 7/4-approximation vs dynamic strategies",
      "outer product, n=" + std::to_string(n) + ", speeds U[10,100], reps=" +
          std::to_string(reps));

  CsvWriter csv(std::cout, {"p", "Static74.mean", "DynamicOuter2Phases.mean",
                            "DynamicOuter.mean", "RandomOuter.mean"});

  for (const std::uint32_t p : ps) {
    // Static ratio averaged over the same speed draws the experiments
    // use (it is deterministic given the draw).
    RunningStats static_ratio;
    for (std::uint32_t r = 0; r < reps; ++r) {
      const std::uint64_t rep_seed =
          derive_stream(seed, "rep." + std::to_string(r));
      Rng speed_rng(derive_stream(rep_seed, "experiment.speeds"));
      const Platform platform =
          make_platform(UniformIntervalSpeeds(10.0, 100.0), p, speed_rng);
      static_ratio.push(static_outer_ratio(platform.relative_speeds()));
    }

    auto dynamic_mean = [&](const std::string& name) {
      ExperimentConfig config;
      config.kernel = Kernel::kOuter;
      config.strategy = name;
      config.n = n;
      config.p = p;
      config.seed = seed;
      config.reps = reps;
      return run_experiment(config).normalized.mean;
    };

    csv.row(std::vector<double>{
        static_cast<double>(p), static_ratio.mean(),
        dynamic_mean("DynamicOuter2Phases"), dynamic_mean("DynamicOuter"),
        dynamic_mean("RandomOuter")});
  }
  std::cout << "# static needs exact speeds; dynamic strategies are "
               "speed-agnostic\n";
  return 0;
}
