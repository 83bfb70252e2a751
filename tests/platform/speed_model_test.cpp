#include "platform/speed_model.hpp"

#include <gtest/gtest.h>

namespace hetsched {
namespace {

TEST(UniformIntervalSpeeds, DrawsInsideInterval) {
  UniformIntervalSpeeds model(10.0, 100.0);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double s = model.draw(0, rng);
    EXPECT_GE(s, 10.0);
    EXPECT_LT(s, 100.0);
  }
}

TEST(UniformIntervalSpeeds, DegenerateIntervalIsConstant) {
  UniformIntervalSpeeds model(42.0, 42.0);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(model.draw(0, rng), 42.0);
}

TEST(UniformIntervalSpeeds, RejectsBadBounds) {
  EXPECT_THROW(UniformIntervalSpeeds(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(UniformIntervalSpeeds(-1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(UniformIntervalSpeeds(10.0, 5.0), std::invalid_argument);
}

TEST(UniformIntervalSpeeds, NameMentionsBounds) {
  EXPECT_EQ(UniformIntervalSpeeds(10, 100).name(), "unif[10,100]");
}

TEST(DiscreteSetSpeeds, DrawsOnlyFromSet) {
  DiscreteSetSpeeds model({80.0, 100.0, 150.0});
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double s = model.draw(0, rng);
    EXPECT_TRUE(s == 80.0 || s == 100.0 || s == 150.0) << s;
  }
}

TEST(DiscreteSetSpeeds, CoversWholeSet) {
  DiscreteSetSpeeds model({1.0, 2.0, 3.0});
  Rng rng(3);
  bool saw1 = false, saw2 = false, saw3 = false;
  for (int i = 0; i < 200; ++i) {
    const double s = model.draw(0, rng);
    saw1 |= s == 1.0;
    saw2 |= s == 2.0;
    saw3 |= s == 3.0;
  }
  EXPECT_TRUE(saw1 && saw2 && saw3);
}

TEST(DiscreteSetSpeeds, RejectsEmptyOrNonPositive) {
  EXPECT_THROW(DiscreteSetSpeeds({}), std::invalid_argument);
  EXPECT_THROW(DiscreteSetSpeeds({1.0, 0.0}), std::invalid_argument);
}

TEST(HomogeneousSpeeds, AlwaysSameSpeed) {
  HomogeneousSpeeds model(123.0);
  Rng rng(4);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(model.draw(0, rng), 123.0);
}

TEST(HomogeneousSpeeds, RejectsNonPositive) {
  EXPECT_THROW(HomogeneousSpeeds(0.0), std::invalid_argument);
}

TEST(FixedListSpeeds, ReplaysInOrderAndCycles) {
  FixedListSpeeds model({10.0, 20.0, 30.0});
  Rng rng(5);
  EXPECT_DOUBLE_EQ(model.draw(0, rng), 10.0);
  EXPECT_DOUBLE_EQ(model.draw(1, rng), 20.0);
  EXPECT_DOUBLE_EQ(model.draw(2, rng), 30.0);
  EXPECT_DOUBLE_EQ(model.draw(3, rng), 10.0);  // wraps
  EXPECT_DOUBLE_EQ(model.draw(1, rng), 20.0);  // no cursor: by index only
}

TEST(FixedListSpeeds, RejectsEmptyOrNonPositive) {
  EXPECT_THROW(FixedListSpeeds({}), std::invalid_argument);
  EXPECT_THROW(FixedListSpeeds({-5.0}), std::invalid_argument);
}

TEST(PerturbationModel, DisabledByDefault) {
  PerturbationModel model;
  EXPECT_FALSE(model.enabled());
  Rng rng(6);
  EXPECT_DOUBLE_EQ(model.perturb(77.0, 100.0, rng), 77.0);
}

TEST(PerturbationModel, StaysWithinStepBounds) {
  PerturbationModel model(5.0);
  Rng rng(7);
  double speed = 100.0;
  for (int i = 0; i < 1000; ++i) {
    const double next = model.perturb(speed, 100.0, rng);
    EXPECT_GE(next, speed * 0.95 - 1e-9);
    EXPECT_LE(next, speed * 1.05 + 1e-9);
    speed = next;
  }
}

TEST(PerturbationModel, ClampsLongDrift) {
  PerturbationModel model(20.0, 4.0);
  Rng rng(8);
  double speed = 100.0;
  for (int i = 0; i < 100000; ++i) speed = model.perturb(speed, 100.0, rng);
  EXPECT_GE(speed, 25.0 - 1e-9);
  EXPECT_LE(speed, 400.0 + 1e-9);
}

TEST(PerturbationModel, RejectsBadParameters) {
  EXPECT_THROW(PerturbationModel(-1.0), std::invalid_argument);
  EXPECT_THROW(PerturbationModel(100.0), std::invalid_argument);
  EXPECT_THROW(PerturbationModel(5.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace hetsched
