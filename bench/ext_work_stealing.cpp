// Extension: decentralized work stealing vs the paper's master-based
// strategies on the outer product. Work stealing starts from a
// speed-agnostic band partition (good locality, like SortedOuter per
// band) and re-balances by stealing — this bench shows where it lands
// between the data-oblivious and data-aware schedulers, and how many
// steals the heterogeneity induces.
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"

int main(int argc, char** argv) {
  using namespace hetsched;
  const CliArgs args(argc, argv);
  bench::require_flags(args, {"n", "p", "reps", "seed"});
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 100));
  const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 10));
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto ps = bench::to_u32(args.get_int_list("p", {10, 20, 50, 100, 200}));

  bench::print_header(
      "Extension (work stealing)",
      "band-partition + steal-half vs master-based dynamic strategies",
      "outer product, n=" + std::to_string(n) + ", speeds U[10,100], reps=" +
          std::to_string(reps));

  const std::vector<std::string> strategies{
      "WorkStealingOuter", "DynamicOuter2Phases", "DynamicOuter",
      "SortedOuter", "RandomOuter"};
  const auto points = sweep_worker_count(Kernel::kOuter, n, ps,
                                         paper_default_scenario(), strategies,
                                         false, seed, reps);
  print_sweep_csv(points, "p", std::cout);
  std::cout << "# band partition gives work stealing SortedOuter-like "
               "locality until steals replicate inputs\n";
  return 0;
}
