// End-to-end checks of the binaries' flag handling: every hetsched_cli
// command rejects a misspelled or unknown flag before it runs anything
// and accepts every flag its help text documents; the bench binaries
// reject unknown flags the same way.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>

namespace {

struct CliRun {
  int status = -1;
  std::string output;  // stdout and stderr
};

CliRun run_binary(const std::string& path, const std::string& args) {
  const std::string command = path + " " + args + " 2>&1";
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    run.output.append(buffer, got);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.status = WEXITSTATUS(status);
  return run;
}

CliRun run_cli(const std::string& args) {
  return run_binary(HETSCHED_CLI_PATH, args);
}

std::size_t count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

const char* kCommands[] = {"run",      "sweep",    "tune",    "partition",
                           "dag",      "campaign", "validate", "analyze"};

TEST(CliFlags, MisspelledFlagFailsWithSuggestion) {
  const CliRun run = run_cli("run --stratgy=Nope --bogus-flag=7");
  EXPECT_EQ(run.status, 1) << run.output;
  EXPECT_NE(run.output.find(
                "unknown flag --stratgy (did you mean --strategy?)"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("unknown flag --bogus-flag"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("normalized volume"), std::string::npos)
      << "the experiment ran despite the bad flags";
}

TEST(CliFlags, UnknownFlagFailsOnEveryCommand) {
  for (const char* command : kCommands) {
    SCOPED_TRACE(command);
    const CliRun run = run_cli(std::string(command) + " --bogus-flag=7");
    EXPECT_EQ(run.status, 1) << run.output;
    EXPECT_NE(run.output.find(std::string(command) +
                              ": unknown flag --bogus-flag"),
              std::string::npos)
        << run.output;
  }
}

TEST(CliFlags, RemovedLanesFlagIsRejected) {
  // `lanes` is not a run flag: passing it must fail, not be ignored.
  const std::string removed = "lanes";
  const CliRun run = run_cli("run --" + removed + "=2");
  EXPECT_EQ(run.status, 1) << run.output;
  EXPECT_NE(run.output.find("run: unknown flag --" + removed),
            std::string::npos)
      << run.output;
}

// Parses `hetsched_cli help` into command -> the flags its section
// documents. A section starts at a line "  <command>  ..." and runs
// over the lines indented below it.
std::map<std::string, std::set<std::string>> documented_flags() {
  const CliRun help = run_cli("help");
  EXPECT_EQ(help.status, 0);
  const auto is_flag_char = [](char c) {
    return std::islower(static_cast<unsigned char>(c)) ||
           std::isdigit(static_cast<unsigned char>(c)) || c == '-';
  };
  std::map<std::string, std::set<std::string>> out;
  std::string current;
  std::istringstream lines(help.output);
  for (std::string line; std::getline(lines, line);) {
    if (line.size() > 2 && line.rfind("  ", 0) == 0 &&
        std::islower(static_cast<unsigned char>(line[2]))) {
      current = line.substr(2, line.find(' ', 2) - 2);
      out[current];
    } else if (line.rfind("   ", 0) != 0) {
      current.clear();  // unindented text ends the section
    }
    if (current.empty()) continue;
    for (auto at = line.find("--"); at != std::string::npos;
         at = line.find("--", at + 2)) {
      std::size_t end = at + 2;
      while (end < line.size() && is_flag_char(line[end])) ++end;
      if (end > at + 2) out[current].insert(line.substr(at + 2, end - at - 2));
    }
  }
  out.erase("help");
  return out;
}

TEST(CliFlags, EveryDocumentedFlagIsAccepted) {
  const auto documented = documented_flags();
  ASSERT_EQ(documented.size(), std::size(kCommands));
  for (const auto& [command, flags] : documented) {
    SCOPED_TRACE(command);
    // Pass every documented flag plus one unknown flag: the rejection
    // names every flag the command does not know, so it must name the
    // unknown one and nothing else.
    std::string args = command;
    for (const std::string& f : flags) args += " --" + f + "=1";
    args += " --zz-not-a-flag=1";
    const CliRun run = run_cli(args);
    EXPECT_EQ(run.status, 1) << run.output;
    EXPECT_EQ(count(run.output, "unknown flag"), 1u) << run.output;
    EXPECT_NE(run.output.find("unknown flag --zz-not-a-flag"),
              std::string::npos)
        << run.output;
  }
  // Spot-check the parse itself.
  EXPECT_TRUE(documented.at("run").count("strategy"));
  EXPECT_TRUE(documented.at("campaign").count("jobs"));
  EXPECT_TRUE(documented.at("analyze").count("md-out"));
}

TEST(CliProfile, LabelsTheThreadSumBesideWallTime) {
  const CliRun run = run_cli(
      "run --kernel=outer --strategy=RandomOuter --n=20 --p=4 --reps=2 "
      "--profile");
  EXPECT_EQ(run.status, 0) << run.output;
  const auto wall = run.output.find("wall time           : ");
  const auto label =
      run.output.find("profile (self ns, summed over rep threads):\n");
  ASSERT_NE(wall, std::string::npos) << run.output;
  ASSERT_NE(label, std::string::npos) << run.output;
  EXPECT_LT(wall, label) << run.output;
  EXPECT_NE(run.output.find("engine.run : "), std::string::npos) << run.output;
}

TEST(BenchFlags, MisspelledFlagFailsWithSuggestion) {
#if defined(HETSCHED_FIG04_PATH) && defined(HETSCHED_PERF_SMOKE_PATH)
  struct Case {
    const char* path;
    const char* args;
    const char* message;
  };
  const Case cases[] = {
      {HETSCHED_FIG04_PATH, "--reps=1 --sed=3",
       "fig04_outer_n100: unknown flag --sed (did you mean --seed?)"},
      {HETSCHED_PERF_SMOKE_PATH, "--outt=perf.json",
       "perf_smoke: unknown flag --outt (did you mean --out?)"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.path);
    const CliRun run = run_binary(c.path, c.args);
    EXPECT_EQ(run.status, 1) << run.output;
    EXPECT_NE(run.output.find(c.message), std::string::npos) << run.output;
    // The rejection comes before any work: no CSV header, no perf lines.
    EXPECT_EQ(run.output.find('#'), std::string::npos) << run.output;
  }
#else
  GTEST_SKIP() << "bench binaries not built (HETSCHED_BUILD_BENCH=OFF)";
#endif
}

TEST(BenchFlags, HelpListsFlagsAndRunsNothing) {
#if defined(HETSCHED_FIG04_PATH)
  const CliRun run = run_binary(HETSCHED_FIG04_PATH, "--help");
  EXPECT_EQ(run.status, 0) << run.output;
  EXPECT_NE(run.output.find("fig04_outer_n100"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("--reps"), std::string::npos) << run.output;
  // No table: neither the '#' provenance header nor a CSV row.
  EXPECT_EQ(run.output.find('#'), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find(','), std::string::npos) << run.output;
#else
  GTEST_SKIP() << "bench binaries not built (HETSCHED_BUILD_BENCH=OFF)";
#endif
}

}  // namespace
