// One-command reproduction: runs the key data point of every paper
// figure as a single parallel campaign and emits one JSON document —
// the machine-readable companion to the per-figure CSV benches.
#include <iostream>

#include "bench/bench_util.hpp"
#include "core/campaign.hpp"

int main(int argc, char** argv) {
  using namespace hetsched;
  const CliArgs args(argc, argv);
  bench::require_flags(args, {"jobs", "reps", "seed"});
  const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 5));
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto parallelism = static_cast<unsigned>(args.get_int("jobs", 0));

  Campaign campaign("hpdc14-key-points");
  auto entry = [&](const std::string& label, Kernel kernel,
                   const std::string& strategy, std::uint32_t n,
                   std::uint32_t p, const std::string& scenario = "default") {
    ExperimentConfig config;
    config.kernel = kernel;
    config.strategy = strategy;
    config.n = n;
    config.p = p;
    config.reps = reps;
    config.seed = seed;
    config.scenario = named_scenario(scenario);
    campaign.add(label, config);
  };

  // Figure 1 / 4 at the Random peak.
  entry("fig1.random.p100", Kernel::kOuter, "RandomOuter", 100, 100);
  entry("fig1.sorted.p100", Kernel::kOuter, "SortedOuter", 100, 100);
  entry("fig1.dynamic.p100", Kernel::kOuter, "DynamicOuter", 100, 100);
  entry("fig4.twophase.p100", Kernel::kOuter, "DynamicOuter2Phases", 100, 100);
  // Figure 5 (large vectors) at p = 100.
  entry("fig5.random.p100", Kernel::kOuter, "RandomOuter", 1000, 100);
  entry("fig5.twophase.p100", Kernel::kOuter, "DynamicOuter2Phases", 1000,
        100);
  // Figure 8 scenarios at the paper's p = 20.
  entry("fig8.dyn20.twophase", Kernel::kOuter, "DynamicOuter2Phases", 100, 20,
        "dyn.20");
  entry("fig8.set5.twophase", Kernel::kOuter, "DynamicOuter2Phases", 100, 20,
        "set.5");
  // Figures 9-10 at p = 100.
  entry("fig9.random.p100", Kernel::kMatmul, "RandomMatrix", 40, 100);
  entry("fig9.dynamic.p100", Kernel::kMatmul, "DynamicMatrix", 40, 100);
  entry("fig9.twophase.p100", Kernel::kMatmul, "DynamicMatrix2Phases", 40,
        100);
  entry("fig10.twophase.p100", Kernel::kMatmul, "DynamicMatrix2Phases", 100,
        100);

  const auto outcomes = campaign.run(parallelism);
  // Provenance on stderr so the JSON document on stdout stays parseable.
  for (const auto& outcome : outcomes) {
    bench::print_perf(outcome.label, outcome.result, std::cerr);
  }
  write_campaign_json(std::cout, campaign.name(), outcomes);
  return 0;
}
