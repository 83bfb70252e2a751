// Trace on/off identity: attaching a TraceSink must not change the
// simulated run. The flat engine batches a worker's completions into
// one event when nothing observes them and falls back to one event per
// task when a sink is attached; both must schedule the same requests in
// the same order. Tied speeds (`hom`, `set.3`, `set.5`) are where an
// event order that depended on the number of pushed events would show.
#include <gtest/gtest.h>

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
#include "sim/trace.hpp"

namespace hetsched {
namespace {

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void expect_identical(const SimResult& traced, const SimResult& plain) {
  EXPECT_EQ(hex(traced.makespan), hex(plain.makespan));
  EXPECT_EQ(traced.total_blocks, plain.total_blocks);
  EXPECT_EQ(traced.total_tasks_done, plain.total_tasks_done);
  EXPECT_EQ(hex(traced.link_busy_time), hex(plain.link_busy_time));
  ASSERT_EQ(traced.workers.size(), plain.workers.size());
  for (std::size_t k = 0; k < plain.workers.size(); ++k) {
    SCOPED_TRACE("worker " + std::to_string(k));
    const WorkerSimStats& a = traced.workers[k];
    const WorkerSimStats& b = plain.workers[k];
    EXPECT_EQ(a.tasks_done, b.tasks_done);
    EXPECT_EQ(a.blocks_received, b.blocks_received);
    EXPECT_EQ(a.messages_received, b.messages_received);
    EXPECT_EQ(hex(a.busy_time), hex(b.busy_time));
    EXPECT_EQ(hex(a.finish_time), hex(b.finish_time));
    EXPECT_EQ(hex(a.starved_time), hex(b.starved_time));
    EXPECT_EQ(hex(a.final_speed), hex(b.final_speed));
  }
}

struct PaperStrategy {
  const char* name;
  bool outer;
};

const PaperStrategy kPaperStrategies[] = {
    {"RandomOuter", true},          {"SortedOuter", true},
    {"DynamicOuter", true},         {"DynamicOuter2Phases", true},
    {"RandomMatrix", false},        {"SortedMatrix", false},
    {"DynamicMatrix", false},       {"DynamicMatrix2Phases", false}};

std::unique_ptr<Strategy> make_strategy(const PaperStrategy& s,
                                        std::uint32_t p, std::uint64_t seed) {
  if (s.outer) return make_outer_strategy(s.name, OuterConfig{60}, p, seed);
  return make_matmul_strategy(s.name, MatmulConfig{12}, p, seed);
}

class TraceIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(TraceIdentity, FlatRunIsBitIdenticalWithAndWithoutSink) {
  const Scenario scenario = named_scenario(GetParam());
  constexpr std::uint32_t kWorkers = 20;
  for (const PaperStrategy& s : kPaperStrategies) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(s.name) + " seed " + std::to_string(seed));
      Rng rng(derive_stream(seed, "trace_identity.platform"));
      const Platform platform = make_platform(*scenario.speeds, kWorkers, rng);
      SimConfig config;
      config.seed = seed;
      config.perturbation = scenario.perturbation;

      auto plain_strategy = make_strategy(s, kWorkers, seed);
      const SimResult plain = simulate(*plain_strategy, platform, config);
      auto traced_strategy = make_strategy(s, kWorkers, seed);
      RecordingTrace trace;
      const SimResult traced =
          simulate(*traced_strategy, platform, config, &trace);
      EXPECT_FALSE(trace.completions().empty());
      expect_identical(traced, plain);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NamedScenarios, TraceIdentity,
                         ::testing::Values("default", "hom", "unif.1",
                                           "unif.2", "set.3", "set.5",
                                           "dyn.5", "dyn.20"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

TEST(TraceIdentity, TimedRunOnHomIsBitIdenticalWithAndWithoutSink) {
  constexpr std::uint32_t kWorkers = 20;
  const Platform platform = make_homogeneous_platform(kWorkers);
  for (const PaperStrategy& s : kPaperStrategies) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(s.name) + " seed " + std::to_string(seed));
      TimedSimConfig config;
      config.seed = seed;
      auto plain_strategy = make_strategy(s, kWorkers, seed);
      const SimResult plain = simulate_timed(*plain_strategy, platform, config);
      auto traced_strategy = make_strategy(s, kWorkers, seed);
      RecordingTrace trace;
      const SimResult traced =
          simulate_timed(*traced_strategy, platform, config, &trace);
      EXPECT_FALSE(trace.completions().empty());
      expect_identical(traced, plain);
    }
  }
}

}  // namespace
}  // namespace hetsched
