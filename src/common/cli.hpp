// A tiny --key=value command-line parser for bench and example binaries.
//
// All harness binaries run unattended with sensible defaults (the
// paper's parameters); flags exist so a user can rescale an experiment
// (e.g. --reps=3 --pmax=100 for a quick pass).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hetsched {

class CliArgs {
 public:
  /// Parses argv of the form --key=value or --flag. Unrecognized
  /// positional arguments throw std::invalid_argument.
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Parses a comma-separated list of integers, e.g. --p=10,50,100.
  std::vector<std::int64_t> get_int_list(const std::string& key,
                                         std::vector<std::int64_t> fallback) const;

  /// Throws std::invalid_argument when a flag is not in `known`. The
  /// message starts with `context` (e.g. the subcommand) and names
  /// every unknown flag, each with the closest known flag when one is
  /// within two edits ("did you mean --strategy?").
  void require_known(const std::vector<std::string>& known,
                     const std::string& context) const;

  const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace hetsched
