#include "platform/speed_model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace hetsched {

UniformIntervalSpeeds::UniformIntervalSpeeds(double lo, double hi)
    : lo_(lo), hi_(hi) {
  if (!(lo > 0.0) || !(hi >= lo)) {
    throw std::invalid_argument("UniformIntervalSpeeds: need 0 < lo <= hi");
  }
}

std::string UniformIntervalSpeeds::name() const {
  std::ostringstream os;
  os << "unif[" << lo_ << "," << hi_ << "]";
  return os.str();
}

double UniformIntervalSpeeds::draw(std::size_t, Rng& rng) const {
  return lo_ == hi_ ? lo_ : rng.uniform(lo_, hi_);
}

DiscreteSetSpeeds::DiscreteSetSpeeds(std::vector<double> speeds)
    : speeds_(std::move(speeds)) {
  if (speeds_.empty()) {
    throw std::invalid_argument("DiscreteSetSpeeds: empty speed set");
  }
  if (std::any_of(speeds_.begin(), speeds_.end(),
                  [](double s) { return !(s > 0.0); })) {
    throw std::invalid_argument("DiscreteSetSpeeds: speeds must be positive");
  }
}

std::string DiscreteSetSpeeds::name() const {
  std::ostringstream os;
  os << "set{";
  for (std::size_t i = 0; i < speeds_.size(); ++i) {
    if (i) os << ",";
    os << speeds_[i];
  }
  os << "}";
  return os.str();
}

double DiscreteSetSpeeds::draw(std::size_t, Rng& rng) const {
  return speeds_[rng.next_below(speeds_.size())];
}

TwoClassSpeeds::TwoClassSpeeds(double slow, double fast, double fast_fraction)
    : slow_(slow), fast_(fast), fast_fraction_(fast_fraction) {
  if (!(slow > 0.0) || !(fast >= slow)) {
    throw std::invalid_argument("TwoClassSpeeds: need 0 < slow <= fast");
  }
  if (fast_fraction < 0.0 || fast_fraction > 1.0) {
    throw std::invalid_argument("TwoClassSpeeds: fraction must be in [0, 1]");
  }
}

std::string TwoClassSpeeds::name() const {
  std::ostringstream os;
  os << "two-class(" << slow_ << "/" << fast_ << ", " << fast_fraction_ << ")";
  return os.str();
}

double TwoClassSpeeds::draw(std::size_t, Rng& rng) const {
  return rng.bernoulli(fast_fraction_) ? fast_ : slow_;
}

FixedListSpeeds::FixedListSpeeds(std::vector<double> speeds)
    : speeds_(std::move(speeds)) {
  if (speeds_.empty()) {
    throw std::invalid_argument("FixedListSpeeds: empty speed list");
  }
  if (std::any_of(speeds_.begin(), speeds_.end(),
                  [](double s) { return !(s > 0.0); })) {
    throw std::invalid_argument("FixedListSpeeds: speeds must be positive");
  }
}

std::string FixedListSpeeds::name() const { return "fixed"; }

double FixedListSpeeds::draw(std::size_t worker, Rng&) const {
  return speeds_[worker % speeds_.size()];
}

HomogeneousSpeeds::HomogeneousSpeeds(double speed) : speed_(speed) {
  if (!(speed > 0.0)) {
    throw std::invalid_argument("HomogeneousSpeeds: speed must be positive");
  }
}

std::string HomogeneousSpeeds::name() const {
  std::ostringstream os;
  os << "hom(" << speed_ << ")";
  return os.str();
}

double HomogeneousSpeeds::draw(std::size_t, Rng&) const { return speed_; }

PerturbationModel::PerturbationModel(double max_percent, double clamp_factor)
    : max_percent_(max_percent), clamp_factor_(clamp_factor) {
  if (max_percent < 0.0 || max_percent >= 100.0) {
    throw std::invalid_argument("PerturbationModel: percent must be in [0, 100)");
  }
  if (!(clamp_factor > 1.0)) {
    throw std::invalid_argument("PerturbationModel: clamp factor must exceed 1");
  }
}

double PerturbationModel::perturb(double current, double base, Rng& rng) const {
  if (!enabled()) return current;
  const double q = max_percent_ / 100.0;
  const double factor = rng.uniform(1.0 - q, 1.0 + q);
  const double next = current * factor;
  return std::clamp(next, base / clamp_factor_, base * clamp_factor_);
}

}  // namespace hetsched
