#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace hetsched {
namespace {

CliArgs parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(CliArgs, ParsesKeyValue) {
  const CliArgs args = parse({"prog", "--n=100", "--name=hello"});
  EXPECT_TRUE(args.has("n"));
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_EQ(args.get("name", ""), "hello");
}

TEST(CliArgs, BareFlagIsTrue) {
  const CliArgs args = parse({"prog", "--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(CliArgs, FallbacksWhenMissing) {
  const CliArgs args = parse({"prog"});
  EXPECT_FALSE(args.has("n"));
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
  EXPECT_EQ(args.get("s", "dflt"), "dflt");
  EXPECT_TRUE(args.get_bool("b", true));
}

TEST(CliArgs, ParsesDouble) {
  const CliArgs args = parse({"prog", "--beta=4.17"});
  EXPECT_DOUBLE_EQ(args.get_double("beta", 0.0), 4.17);
}

TEST(CliArgs, ParsesBoolSpellings) {
  EXPECT_TRUE(parse({"p", "--x=true"}).get_bool("x", false));
  EXPECT_TRUE(parse({"p", "--x=1"}).get_bool("x", false));
  EXPECT_TRUE(parse({"p", "--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(parse({"p", "--x=false"}).get_bool("x", true));
}

TEST(CliArgs, ParsesIntList) {
  const CliArgs args = parse({"prog", "--p=10,50,100"});
  const auto list = args.get_int_list("p", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], 10);
  EXPECT_EQ(list[1], 50);
  EXPECT_EQ(list[2], 100);
}

TEST(CliArgs, IntListFallback) {
  const CliArgs args = parse({"prog"});
  const auto list = args.get_int_list("p", {1, 2});
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0], 1);
}

TEST(CliArgs, RejectsPositionalArguments) {
  EXPECT_THROW(parse({"prog", "positional"}), std::invalid_argument);
}

TEST(CliArgs, RecordsProgramName) {
  EXPECT_EQ(parse({"myprog"}).program(), "myprog");
}

// The message require_known throws for `args`, or "" if it accepts.
std::string rejection(const CliArgs& args,
                      const std::vector<std::string>& known) {
  try {
    args.require_known(known, "run");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CliArgs, RequireKnownAcceptsKnownFlags) {
  const CliArgs args = parse({"prog", "--strategy=RandomOuter", "--json"});
  EXPECT_EQ(rejection(args, {"strategy", "json", "p"}), "");
}

TEST(CliArgs, RequireKnownSuggestsTheMisspelledFlag) {
  const CliArgs args = parse({"prog", "--stratgy=Nope"});
  EXPECT_EQ(rejection(args, {"strategy", "strategies", "p"}),
            "run: unknown flag --stratgy (did you mean --strategy?)");
}

TEST(CliArgs, RequireKnownNamesEveryUnknownFlag) {
  const CliArgs args =
      parse({"prog", "--stratgy=Nope", "--bogus-flag=7", "--p=3"});
  EXPECT_EQ(rejection(args, {"strategy", "p"}),
            "run: unknown flag --bogus-flag; "
            "unknown flag --stratgy (did you mean --strategy?)");
}

TEST(CliArgs, RequireKnownSuggestsNothingFarAway) {
  const CliArgs args = parse({"prog", "--parallel=1"});
  EXPECT_EQ(rejection(args, {"p", "reps", "seed"}),
            "run: unknown flag --parallel");
}

}  // namespace
}  // namespace hetsched
