// Figure 5: all outer-product strategies plus the analysis curve for
// large vectors, N/l = 1000 blocks (10^6 tasks). The gap between
// data-oblivious and data-aware strategies widens markedly with N.
#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hetsched;
  const CliArgs args(argc, argv);
  bench::require_flags(args, {"n", "p", "reps", "seed"});
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 1000));
  const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 3));
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto ps =
      bench::to_u32(args.get_int_list("p", {50, 100, 200, 300}));

  bench::print_header("Figure 5",
                      "outer product, large vectors, all strategies + analysis",
                      "n=" + std::to_string(n) + " blocks, reps=" +
                          std::to_string(reps));

  const auto points = sweep_worker_count(
      Kernel::kOuter, n, ps, paper_default_scenario(),
      {"DynamicOuter2Phases", "DynamicOuter", "RandomOuter", "SortedOuter"},
      true, seed, reps);
  print_sweep_csv(points, "p", std::cout);
  return 0;
}
