// Figure 6: communication of DynamicOuter2Phases and its analysis for
// varying beta (the switch threshold), one fixed speed draw, p = 20,
// N/l = 100. Also reports the analysis-optimal beta (paper: 4.17, with
// the simulation optimal anywhere in [3, 6]).
#include "analysis/outer_analysis.hpp"
#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "platform/platform.hpp"

int main(int argc, char** argv) {
  using namespace hetsched;
  const CliArgs args(argc, argv);
  bench::require_flags(args, {"n", "p", "reps", "seed"});
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 100));
  const auto p = static_cast<std::uint32_t>(args.get_int("p", 20));
  const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 10));
  const std::uint64_t seed = args.get_int("seed", 20140623);

  bench::print_header("Figure 6",
                      "DynamicOuter2Phases and analysis vs beta",
                      "n=" + std::to_string(n) + ", p=" + std::to_string(p) +
                          ", one fixed speed draw, reps=" +
                          std::to_string(reps));

  std::vector<double> betas;
  for (double b = 1.0; b <= 8.0001; b += 0.25) betas.push_back(b);

  const auto points =
      sweep_beta(Kernel::kOuter, n, p, betas, paper_default_scenario(), seed,
                 reps);
  print_sweep_csv(points, "beta", std::cout);

  // The analysis-chosen beta (homogeneous, speed-agnostic) and the
  // empirical argmin of the simulated series.
  const std::vector<double> rs(p, 1.0 / p);
  const auto opt = OuterAnalysis(rs, n).optimal_beta();
  double best_beta = betas.front();
  double best_value = 1e300;
  for (const auto& point : points) {
    const double v = point.normalized.at("DynamicOuter2Phases").mean;
    if (v < best_value) {
      best_value = v;
      best_beta = point.x;
    }
  }
  std::cout << "# analysis-optimal beta (homogeneous): " << opt.x
            << " (predicted ratio " << opt.f << ")\n";
  std::cout << "# simulated argmin beta: " << best_beta << " (measured ratio "
            << best_value << ")\n";
  return 0;
}
