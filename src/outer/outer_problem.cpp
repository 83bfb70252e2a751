#include "outer/outer_problem.hpp"

#include <numeric>
#include <stdexcept>

namespace hetsched {

void validate(const OuterConfig& config) {
  if (config.n == 0) {
    throw std::invalid_argument("OuterConfig: n must be at least 1");
  }
  if (config.n > (1u << 20)) {
    throw std::invalid_argument("OuterConfig: n too large (task ids overflow)");
  }
}

OuterKnowledge::OuterKnowledge(std::uint32_t rows, std::uint32_t cols)
    : unknown_i(rows), unknown_j(cols) {
  std::iota(unknown_i.begin(), unknown_i.end(), 0u);
  std::iota(unknown_j.begin(), unknown_j.end(), 0u);
}

}  // namespace hetsched
