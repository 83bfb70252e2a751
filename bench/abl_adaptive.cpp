// Ablation: self-tuning switch vs model-tuned switch. AdaptiveOuter
// decides the phase switch online from observed marginal efficiency —
// no beta, no ODE, no speeds, no problem size — and is compared against
// the analysis-tuned DynamicOuter2Phases, pure DynamicOuter and
// RandomOuter across worker counts.
#include <cmath>
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "matmul/adaptive_matmul.hpp"
#include "outer/adaptive_outer.hpp"
#include "platform/lower_bound.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  using namespace hetsched;
  const CliArgs args(argc, argv);
  bench::require_flags(args, {"n", "n-mm", "p", "reps", "seed"});
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 100));
  const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 10));
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto ps = bench::to_u32(args.get_int_list("p", {10, 20, 50, 100, 200}));

  bench::print_header(
      "Ablation (adaptive)", "online efficiency-based switch vs model beta",
      "outer product, n=" + std::to_string(n) + ", threshold 1.5 "
          "tasks/step, reps=" + std::to_string(reps));

  CsvWriter csv(std::cout,
                {"p", "Adaptive.mean", "Adaptive.sd", "Tuned2Phases.mean",
                 "DynamicOuter.mean", "RandomOuter.mean",
                 "adaptive_vs_tuned_pct"});

  for (const std::uint32_t p : ps) {
    RunningStats adaptive;
    for (std::uint32_t r = 0; r < reps; ++r) {
      const std::uint64_t rep_seed =
          derive_stream(seed, "rep." + std::to_string(r));
      Rng rng(derive_stream(rep_seed, "experiment.speeds"));
      const Platform platform =
          make_platform(UniformIntervalSpeeds(10.0, 100.0), p, rng);
      AdaptiveOuterStrategy strategy(OuterConfig{n}, p, rep_seed);
      const SimResult result = simulate(strategy, platform);
      adaptive.push(result.normalized_volume(
          outer_lower_bound(n, platform.relative_speeds())));
    }

    auto reference = [&](const std::string& name) {
      ExperimentConfig config;
      config.kernel = Kernel::kOuter;
      config.strategy = name;
      config.n = n;
      config.p = p;
      config.reps = reps;
      config.seed = seed;
      return run_experiment(config).normalized.mean;
    };
    const double tuned = reference("DynamicOuter2Phases");
    csv.row(std::vector<double>{
        static_cast<double>(p), adaptive.mean(), adaptive.stddev(), tuned,
        reference("DynamicOuter"), reference("RandomOuter"),
        100.0 * (adaptive.mean() / tuned - 1.0)});
  }
  std::cout << "# adaptive needs no beta / model / speeds / problem size\n";

  // Matmul counterpart (blocks-per-task threshold 2.5), n = 40.
  const auto n_mm = static_cast<std::uint32_t>(args.get_int("n-mm", 40));
  std::cout << "\n# matmul: AdaptiveMatmul vs tuned DynamicMatrix2Phases, n="
            << n_mm << "\n";
  CsvWriter mm_csv(std::cout, {"p", "Adaptive.mean", "Tuned2Phases.mean",
                               "adaptive_vs_tuned_pct"});
  for (const std::uint32_t p : {20u, 50u, 100u}) {
    RunningStats adaptive;
    for (std::uint32_t r = 0; r < reps; ++r) {
      const std::uint64_t rep_seed =
          derive_stream(seed, "rep." + std::to_string(r));
      Rng rng(derive_stream(rep_seed, "experiment.speeds"));
      const Platform platform =
          make_platform(UniformIntervalSpeeds(10.0, 100.0), p, rng);
      AdaptiveMatmulStrategy strategy(MatmulConfig{n_mm}, p, rep_seed);
      const SimResult result = simulate(strategy, platform);
      adaptive.push(result.normalized_volume(
          matmul_lower_bound(n_mm, platform.relative_speeds())));
    }
    ExperimentConfig tuned;
    tuned.kernel = Kernel::kMatmul;
    tuned.strategy = "DynamicMatrix2Phases";
    tuned.n = n_mm;
    tuned.p = p;
    tuned.reps = reps;
    tuned.seed = seed;
    const double tuned_mean = run_experiment(tuned).normalized.mean;
    mm_csv.row(std::vector<double>{static_cast<double>(p), adaptive.mean(),
                                   tuned_mean,
                                   100.0 * (adaptive.mean() / tuned_mean - 1.0)});
  }
  return 0;
}
