// Extension: dynamic scheduling of tiled LU (completing the dense
// factorization family: Cholesky, QR, LU). Same policy comparison as
// ext_cholesky / ext_qr.
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dag/dag_engine.hpp"
#include "dag/lu.hpp"
#include "platform/platform.hpp"

int main(int argc, char** argv) {
  using namespace hetsched;
  const CliArgs args(argc, argv);
  bench::require_flags(args, {"p", "reps", "seed", "tiles"});
  const auto tiles = static_cast<std::uint32_t>(args.get_int("tiles", 20));
  const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 5));
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto ps = bench::to_u32(args.get_int_list("p", {4, 8, 16, 32}));

  const LuGraph lu = build_lu_graph(tiles);
  bench::print_header(
      "Extension (LU)", "dynamic DAG scheduling policies on tiled LU",
      "T=" + std::to_string(tiles) + " tiles, " +
          std::to_string(lu.graph.num_tasks()) + " tasks, critical path " +
          std::to_string(lu.graph.critical_path()) + ", reps=" +
          std::to_string(reps));

  std::vector<std::string> columns{"p"};
  for (const auto& name : dag_policy_names()) {
    columns.push_back(name + ".transfers");
    columns.push_back(name + ".makespan_vs_lb");
  }
  CsvWriter csv(std::cout, columns);

  for (const std::uint32_t p : ps) {
    std::vector<double> cells{static_cast<double>(p)};
    for (const auto& name : dag_policy_names()) {
      RunningStats transfers, inflation;
      for (std::uint32_t r = 0; r < reps; ++r) {
        const std::uint64_t rep_seed =
            derive_stream(seed, "rep." + std::to_string(r));
        Rng speed_rng(derive_stream(rep_seed, "speeds"));
        const Platform platform =
            make_platform(UniformIntervalSpeeds(10.0, 100.0), p, speed_rng);
        auto policy = make_dag_policy(name, rep_seed);
        const DagSimResult result = simulate_dag(lu.graph, platform, *policy);
        transfers.push(static_cast<double>(result.total_transfers));
        inflation.push(result.makespan /
                       DagSimResult::makespan_lower_bound(lu.graph, platform));
      }
      cells.push_back(transfers.mean());
      cells.push_back(inflation.mean());
    }
    csv.row(cells);
  }
  return 0;
}
