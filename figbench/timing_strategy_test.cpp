// Wrapped vs unwrapped simulation must be bit-identical: the timing
// wrapper may observe the strategy but never change the schedule. Runs
// every paper strategy on both engines, with a crash (requeue path) and
// a straggler, and compares every SimResult field bit for bit.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "matmul/matmul_factory.hpp"
#include "outer/outer_factory.hpp"
#include "platform/platform.hpp"
#include "platform/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/engine_timed.hpp"
#include "sim_identity.hpp"
#include "timing_strategy.hpp"

namespace {

using namespace hetsched;

std::unique_ptr<Strategy> build(bool outer, const std::string& name,
                                std::uint32_t p, std::uint64_t seed) {
  if (outer) {
    OuterStrategyOptions options;
    options.phase2_fraction = 0.1;
    return make_outer_strategy(name, OuterConfig{60}, p, seed, options);
  }
  MatmulStrategyOptions options;
  options.phase2_fraction = 0.1;
  return make_matmul_strategy(name, MatmulConfig{16}, p, seed, options);
}

}  // namespace

int main() {
  constexpr std::uint32_t kWorkers = 12;
  const std::vector<WorkerFault> faults{{2.0, 0, 0.0}, {5.0, 3, 0.5}};
  int failures = 0;
  int cases = 0;
  for (const bool outer : {true, false}) {
    const auto& names =
        outer ? outer_strategy_names() : matmul_strategy_names();
    for (const std::string& name : names) {
      for (const bool timed : {false, true}) {
        for (const std::uint64_t seed : {3ull, 20140623ull}) {
          Rng rng(derive_stream(seed, "experiment.speeds"));
          const Platform platform = make_platform(
              *paper_default_scenario().speeds, kWorkers, rng);
          auto plain = build(outer, name, kWorkers, seed);
          auto inner = build(outer, name, kWorkers, seed);
          std::vector<std::uint64_t> samples;
          figbench::TimingStrategy wrapped(*inner, samples);
          SimResult a;
          SimResult b;
          if (timed) {
            TimedSimConfig config;
            config.seed = seed;
            config.faults = faults;
            a = simulate_timed(*plain, platform, config);
            b = simulate_timed(wrapped, platform, config);
          } else {
            SimConfig config;
            config.seed = seed;
            config.faults = faults;
            a = simulate(*plain, platform, config);
            b = simulate(wrapped, platform, config);
          }
          ++cases;
          const bool ok = figbench::identical(a, b) && !samples.empty() &&
                          wrapped.counts().requests > 0 &&
                          a.crashed_workers == 1 && a.requeued_tasks > 0;
          if (!ok) {
            ++failures;
            std::fprintf(stderr, "FAIL %s timed=%d seed=%llu\n", name.c_str(),
                         timed ? 1 : 0, static_cast<unsigned long long>(seed));
          }
        }
      }
    }
  }
  std::printf("%d/%d wrapped-vs-plain cases bit-identical\n", cases - failures,
              cases);
  return failures == 0 && cases == 32 ? 0 : 1;
}
