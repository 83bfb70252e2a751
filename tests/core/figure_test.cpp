#include "core/figure.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace hetsched {
namespace {

TEST(SweepWorkerCount, ProducesOnePointPerP) {
  const auto points = sweep_worker_count(
      Kernel::kOuter, 20, {4, 8}, paper_default_scenario(),
      {"RandomOuter", "DynamicOuter"}, true, 7, 2);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].x, 4.0);
  EXPECT_DOUBLE_EQ(points[1].x, 8.0);
  for (const auto& point : points) {
    EXPECT_TRUE(point.normalized.count("RandomOuter"));
    EXPECT_TRUE(point.normalized.count("DynamicOuter"));
    EXPECT_TRUE(point.normalized.count("Analysis"));
  }
}

TEST(SweepWorkerCount, DataAwareBelowRandomAtEveryPoint) {
  const auto points = sweep_worker_count(
      Kernel::kOuter, 30, {4, 10}, paper_default_scenario(),
      {"RandomOuter", "DynamicOuter"}, false, 3, 3);
  for (const auto& point : points) {
    EXPECT_LT(point.normalized.at("DynamicOuter").mean,
              point.normalized.at("RandomOuter").mean)
        << "p=" << point.x;
  }
}

TEST(SweepBeta, CoversRequestedBetasWithAnalysis) {
  const auto points = sweep_beta(Kernel::kOuter, 24, 6, {2.0, 4.0, 6.0},
                                 paper_default_scenario(), 11, 2);
  ASSERT_EQ(points.size(), 3u);
  for (const auto& point : points) {
    EXPECT_TRUE(point.normalized.count("DynamicOuter2Phases"));
    EXPECT_TRUE(point.normalized.count("Analysis"));
    EXPECT_TRUE(point.normalized.count("DynamicOuter"));
    EXPECT_GT(point.normalized.at("Analysis").mean, 1.0);
  }
  // The pure-dynamic reference is the same flat series at every beta.
  EXPECT_DOUBLE_EQ(points[0].normalized.at("DynamicOuter").mean,
                   points[2].normalized.at("DynamicOuter").mean);
}

void expect_same_points(const std::vector<SweepPoint>& a,
                        const std::vector<SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].normalized.size(), b[i].normalized.size());
    for (const auto& [name, summary] : a[i].normalized) {
      SCOPED_TRACE(name);
      const Summary& other = b[i].normalized.at(name);
      EXPECT_EQ(summary.mean, other.mean);
      EXPECT_EQ(summary.stddev, other.stddev);
      EXPECT_EQ(summary.min, other.min);
      EXPECT_EQ(summary.max, other.max);
    }
  }
}

// The fixed-draw sweeps (Figures 2, 6, 11) share one FixedListSpeeds
// across every rep and experiment they run. Its draw depends only on
// the worker index, so a sweep whose reps run in parallel must repeat
// bit for bit and match the serial sweep.
TEST(SweepBeta, FixedDrawIsBitIdenticalUnderAutoParallelism) {
  const auto sweep = [] {
    return sweep_beta(Kernel::kOuter, 20, 64, {2.0, 5.0},
                      paper_default_scenario(), 21, 16);
  };
  set_parallel_budget_capacity(1);
  const auto serial = sweep();
  set_parallel_budget_capacity(4);
  const auto first = sweep();
  const auto second = sweep();
  set_parallel_budget_capacity(0);
  expect_same_points(first, second);
  expect_same_points(serial, first);
}

TEST(SweepPhase1Fraction, EndpointsMatchLimitStrategies) {
  // 0% in phase 1 behaves like the random strategy; ~100% like the
  // pure dynamic one.
  const auto points = sweep_phase1_fraction(Kernel::kOuter, 30, 6,
                                            {0.0, 0.97}, paper_default_scenario(),
                                            13, 3);
  ASSERT_EQ(points.size(), 2u);
  const auto& zero = points[0];
  EXPECT_NEAR(zero.normalized.at("DynamicOuter2Phases").mean,
              zero.normalized.at("RandomOuter").mean,
              0.25 * zero.normalized.at("RandomOuter").mean);
  const auto& high = points[1];
  EXPECT_LT(high.normalized.at("DynamicOuter2Phases").mean,
            high.normalized.at("RandomOuter").mean);
}

TEST(PrintSweepCsv, EmitsHeaderAndRows) {
  std::vector<SweepPoint> points(2);
  points[0].x = 1.0;
  points[0].normalized["S"] = Summary{2.0, 0.1, 1.9, 2.1, 3};
  points[1].x = 2.0;
  points[1].normalized["S"] = Summary{3.0, 0.2, 2.8, 3.2, 3};
  std::ostringstream out;
  print_sweep_csv(points, "p", out);
  const std::string text = out.str();
  EXPECT_NE(text.find("p,S.mean,S.sd"), std::string::npos);
  EXPECT_NE(text.find("1,2,0.1"), std::string::npos);
  EXPECT_NE(text.find("2,3,0.2"), std::string::npos);
}

TEST(PrintSweepCsv, MissingSeriesLeavesEmptyCells) {
  std::vector<SweepPoint> points(1);
  points[0].x = 5.0;
  points[0].normalized["A"] = Summary{1.0, 0.0, 1.0, 1.0, 1};
  std::vector<SweepPoint> both = points;
  both[0].normalized.erase("A");
  both[0].normalized["B"] = Summary{2.0, 0.0, 2.0, 2.0, 1};
  std::vector<SweepPoint> merged{points[0], both[0]};
  std::ostringstream out;
  print_sweep_csv(merged, "x", out);
  EXPECT_NE(out.str().find(",,"), std::string::npos);
}

}  // namespace
}  // namespace hetsched
