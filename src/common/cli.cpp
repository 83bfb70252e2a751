#include "common/cli.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace hetsched {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "true";
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

bool CliArgs::has(const std::string& key) const { return values_.count(key) > 0; }

std::string CliArgs::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return std::stoll(it->second);
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return std::stod(it->second);
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::int64_t> CliArgs::get_int_list(
    const std::string& key, std::vector<std::int64_t> fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  std::stringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoll(item));
  }
  return out;
}

namespace {

// Levenshtein distance (insert, delete, substitute) over two short
// flag names.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

void CliArgs::require_known(const std::vector<std::string>& known,
                            const std::string& context) const {
  std::string message;
  for (const auto& entry : values_) {
    const std::string& key = entry.first;
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    message += message.empty() ? context + ": " : "; ";
    message += "unknown flag --" + key;
    const std::string* best = nullptr;
    std::size_t best_distance = 3;  // suggest within two edits only
    for (const std::string& candidate : known) {
      const std::size_t d = edit_distance(key, candidate);
      if (d < best_distance) {
        best_distance = d;
        best = &candidate;
      }
    }
    if (best != nullptr) message += " (did you mean --" + *best + "?)";
  }
  if (!message.empty()) throw std::invalid_argument(message);
}

}  // namespace hetsched
