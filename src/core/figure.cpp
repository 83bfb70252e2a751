#include "core/figure.hpp"

#include <cmath>
#include <ostream>
#include <set>

#include "common/csv.hpp"
#include "common/rng.hpp"
#include "matmul/matmul_factory.hpp"
#include "outer/outer_factory.hpp"
#include "platform/platform.hpp"

namespace hetsched {

namespace {

/// Draws one concrete speed vector from a scenario (for fixed-draw
/// sweeps) without consuming the scenario's perturbation settings.
std::vector<double> draw_speeds(const Scenario& scenario, std::uint32_t p,
                                std::uint64_t seed) {
  Rng rng(derive_stream(seed, "figure.fixed-draw"));
  return make_platform(*scenario.speeds, p, rng).speeds();
}

Scenario fixed_scenario(const Scenario& base, std::vector<double> speeds) {
  return Scenario{base.name + ".fixed",
                  std::make_shared<FixedListSpeeds>(std::move(speeds)),
                  base.perturbation};
}

Summary constant_summary(double v) { return Summary{v, 0.0, v, v, 1}; }

}  // namespace

std::vector<SweepPoint> sweep_worker_count(
    Kernel kernel, std::uint32_t n, const std::vector<std::uint32_t>& ps,
    const Scenario& scenario, const std::vector<std::string>& strategies,
    bool include_analysis, std::uint64_t seed, std::uint32_t reps) {
  std::vector<SweepPoint> points;
  points.reserve(ps.size());
  for (const std::uint32_t p : ps) {
    SweepPoint point;
    point.x = p;
    bool analysis_done = false;
    for (const auto& name : strategies) {
      ExperimentConfig config;
      config.kernel = kernel;
      config.strategy = name;
      config.n = n;
      config.p = p;
      config.scenario = scenario;
      config.seed = seed;  // same seed => same platform draws per point
      config.reps = reps;
      const ExperimentResult result = run_experiment(config);
      point.normalized[name] = result.normalized;
      if (include_analysis && !analysis_done) {
        point.normalized["Analysis"] = result.analysis_ratio;
        analysis_done = true;
      }
    }
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<SweepPoint> sweep_beta(Kernel kernel, std::uint32_t n,
                                   std::uint32_t p,
                                   const std::vector<double>& betas,
                                   const Scenario& scenario,
                                   std::uint64_t seed, std::uint32_t reps) {
  // One arbitrary speed draw, as in Figures 6 and 11.
  const std::vector<double> speeds = draw_speeds(scenario, p, seed);
  const Scenario fixed = fixed_scenario(scenario, speeds);
  const std::string two_phase =
      kernel == Kernel::kOuter ? "DynamicOuter2Phases" : "DynamicMatrix2Phases";
  const std::string pure =
      kernel == Kernel::kOuter ? "DynamicOuter" : "DynamicMatrix";

  // Flat reference: the pure data-aware strategy on the same draw.
  ExperimentConfig pure_config;
  pure_config.kernel = kernel;
  pure_config.strategy = pure;
  pure_config.n = n;
  pure_config.p = p;
  pure_config.scenario = fixed;
  pure_config.seed = seed;
  pure_config.reps = reps;
  const ExperimentResult pure_result = run_experiment(pure_config);

  std::vector<SweepPoint> points;
  points.reserve(betas.size());
  for (const double beta : betas) {
    SweepPoint point;
    point.x = beta;
    ExperimentConfig config = pure_config;
    config.strategy = two_phase;
    config.phase2_fraction = std::exp(-beta);
    const ExperimentResult result = run_experiment(config);
    point.normalized[two_phase] = result.normalized;
    point.normalized["Analysis"] =
        constant_summary(analysis_ratio_for(kernel, n, speeds, beta));
    point.normalized[pure] = pure_result.normalized;
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<SweepPoint> sweep_phase1_fraction(
    Kernel kernel, std::uint32_t n, std::uint32_t p,
    const std::vector<double>& phase1_fractions, const Scenario& scenario,
    std::uint64_t seed, std::uint32_t reps) {
  const std::vector<double> speeds = draw_speeds(scenario, p, seed);
  const Scenario fixed = fixed_scenario(scenario, speeds);
  const std::string two_phase =
      kernel == Kernel::kOuter ? "DynamicOuter2Phases" : "DynamicMatrix2Phases";

  // Flat reference series, computed once on the same draw.
  const std::vector<std::string> references =
      kernel == Kernel::kOuter
          ? std::vector<std::string>{"RandomOuter", "SortedOuter",
                                     "DynamicOuter"}
          : std::vector<std::string>{"RandomMatrix", "SortedMatrix",
                                     "DynamicMatrix"};
  std::map<std::string, Summary> flat;
  for (const auto& name : references) {
    ExperimentConfig config;
    config.kernel = kernel;
    config.strategy = name;
    config.n = n;
    config.p = p;
    config.scenario = fixed;
    config.seed = seed;
    config.reps = reps;
    flat[name] = run_experiment(config).normalized;
  }

  std::vector<SweepPoint> points;
  points.reserve(phase1_fractions.size());
  for (const double frac1 : phase1_fractions) {
    SweepPoint point;
    point.x = frac1;
    ExperimentConfig config;
    config.kernel = kernel;
    config.strategy = two_phase;
    config.n = n;
    config.p = p;
    config.scenario = fixed;
    config.seed = seed;
    config.reps = reps;
    config.phase2_fraction = 1.0 - frac1;
    const ExperimentResult result = run_experiment(config);
    point.normalized[two_phase] = result.normalized;
    for (const auto& [name, summary] : flat) point.normalized[name] = summary;
    points.push_back(std::move(point));
  }
  return points;
}

void print_sweep_csv(const std::vector<SweepPoint>& points,
                     const std::string& x_name, std::ostream& out) {
  std::set<std::string> series;
  for (const auto& point : points) {
    for (const auto& [name, _] : point.normalized) series.insert(name);
  }
  std::vector<std::string> columns{x_name};
  for (const auto& name : series) {
    columns.push_back(name + ".mean");
    columns.push_back(name + ".sd");
  }
  CsvWriter csv(out, columns);
  for (const auto& point : points) {
    std::vector<std::string> cells{CsvWriter::format(point.x)};
    for (const auto& name : series) {
      const auto it = point.normalized.find(name);
      if (it == point.normalized.end()) {
        cells.push_back("");
        cells.push_back("");
      } else {
        cells.push_back(CsvWriter::format(it->second.mean));
        cells.push_back(CsvWriter::format(it->second.stddev));
      }
    }
    csv.row(cells);
  }
}

}  // namespace hetsched
