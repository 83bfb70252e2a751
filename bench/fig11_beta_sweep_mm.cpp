// Figure 11: communication of DynamicMatrix2Phases and its analysis for
// varying beta, one fixed speed draw, p = 100 workers, N/l = 40 blocks.
// Paper: analysis optimum beta = 2.95 (2.92 when speed-agnostic),
// i.e. 94.7% of tasks in phase 1.
#include <cmath>

#include "analysis/matmul_analysis.hpp"
#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hetsched;
  const CliArgs args(argc, argv);
  bench::require_flags(args, {"n", "p", "reps", "seed"});
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 40));
  const auto p = static_cast<std::uint32_t>(args.get_int("p", 100));
  const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 5));
  const std::uint64_t seed = args.get_int("seed", 20140623);

  bench::print_header("Figure 11",
                      "DynamicMatrix2Phases and analysis vs beta",
                      "n=" + std::to_string(n) + ", p=" + std::to_string(p) +
                          ", one fixed speed draw, reps=" +
                          std::to_string(reps));

  std::vector<double> betas;
  for (double b = 1.0; b <= 6.0001; b += 0.25) betas.push_back(b);

  const auto points = sweep_beta(Kernel::kMatmul, n, p, betas,
                                 paper_default_scenario(), seed, reps);
  print_sweep_csv(points, "beta", std::cout);

  const std::vector<double> rs(p, 1.0 / p);
  const auto opt = MatmulAnalysis(rs, n).optimal_beta();
  double best_beta = betas.front();
  double best_value = 1e300;
  for (const auto& point : points) {
    const double v = point.normalized.at("DynamicMatrix2Phases").mean;
    if (v < best_value) {
      best_value = v;
      best_beta = point.x;
    }
  }
  std::cout << "# analysis-optimal beta (homogeneous): " << opt.x
            << " (predicted ratio " << opt.f << ", phase-1 share "
            << 100.0 * (1.0 - std::exp(-opt.x)) << "%)\n";
  std::cout << "# simulated argmin beta: " << best_beta << " (measured ratio "
            << best_value << ")\n";
  return 0;
}
