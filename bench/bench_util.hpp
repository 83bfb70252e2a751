// Shared plumbing for the figure-reproduction harnesses.
//
// Every binary prints (a) a provenance header describing the paper
// artifact it regenerates and the parameters used, and (b) the series
// as CSV rows, so output can be diffed run-to-run and plotted directly.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/figure.hpp"
#include "obs/export.hpp"
#include "obs/instrument.hpp"
#include "sim/trace_export.hpp"

namespace hetsched::bench {

inline void print_header(const std::string& figure, const std::string& what,
                         const std::string& params) {
  std::cout << "# " << figure << ": " << what << "\n";
  std::cout << "# " << params << "\n";
}

/// Provenance line for replication-engine timing. Benches whose data
/// stream must stay machine-parseable (JSON) pass std::cerr.
inline void print_perf(const std::string& what, const ExperimentResult& result,
                       std::ostream& out = std::cout) {
  out << "# perf: " << what << " wall_time_sec=" << result.wall_time_sec
      << " reps_per_sec=" << result.reps_per_sec
      << " rep_parallelism=" << result.rep_parallelism << "\n";
}

/// Narrow-checked CLI conversion: negative or >= 2^32 values must fail
/// loudly instead of wrapping into bogus p/n grids.
inline std::vector<std::uint32_t> to_u32(const std::vector<std::int64_t>& v) {
  std::vector<std::uint32_t> out;
  out.reserve(v.size());
  for (const auto x : v) {
    if (x < 0 ||
        x > static_cast<std::int64_t>(
                std::numeric_limits<std::uint32_t>::max())) {
      throw std::invalid_argument(
          "bench::to_u32: value out of uint32 range: " + std::to_string(x));
    }
    out.push_back(static_cast<std::uint32_t>(x));
  }
  return out;
}

/// The worker-count grid used by the paper's p-sweeps (Figures 1-10).
inline std::vector<std::int64_t> default_p_grid() {
  return {10, 20, 50, 100, 150, 200, 250, 300};
}

/// The flags maybe_dump_trajectory reads (without the leading "--"),
/// for the benches that call it to pass to require_flags.
inline const std::vector<std::string>& trajectory_flags() {
  static const std::vector<std::string> flags = {
      "trace-out", "metrics-out", "traj-strategy", "traj-p",
      "sample-interval"};
  return flags;
}

/// Checks the flags before the bench runs anything. On --help, lists
/// the flags in `known` and `also` on stdout and exits 0. Otherwise
/// rejects every flag outside them: prints CliArgs::require_known's
/// message, which names the closest known flag, and exits 1.
inline void require_flags(const CliArgs& args, std::vector<std::string> known,
                          const std::vector<std::string>& also = {}) {
  known.insert(known.end(), also.begin(), also.end());
  const std::string& program = args.program();
  const std::string name = program.substr(program.rfind('/') + 1);
  if (args.has("help")) {
    std::cout << "usage: " << name << " [--flag=value ...]\nflags:";
    for (const std::string& flag : known) std::cout << " --" << flag;
    std::cout << "\n";
    std::exit(0);
  }
  try {
    args.require_known(known, name);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(1);
  }
}

/// Shared observability flags for figure benches. When --trace-out=
/// and/or --metrics-out= is passed, runs one instrumented repetition
/// (repetition 0's seed, so it reproduces the figure's first draw) of
/// the named strategy and dumps a chrome://tracing / Perfetto file and
/// a JSON-lines metrics/time-series file. Optional knobs:
///   --traj-strategy=<name>   (default: the kernel's 2-phase strategy)
///   --traj-p=<workers>       (default 100)
///   --sample-interval=<dt>   (simulated time units; default auto)
/// Returns true when anything was written.
inline bool maybe_dump_trajectory(const CliArgs& args, Kernel kernel,
                                  std::uint32_t n, const Scenario& scenario,
                                  std::uint64_t seed) {
  const std::string trace_out = args.get("trace-out", "");
  const std::string metrics_out = args.get("metrics-out", "");
  if (trace_out.empty() && metrics_out.empty()) return false;

  ExperimentConfig config;
  config.kernel = kernel;
  config.n = n;
  config.scenario = scenario;
  config.seed = seed;
  config.p = static_cast<std::uint32_t>(args.get_int("traj-p", 100));
  config.strategy = args.get("traj-strategy",
                             kernel == Kernel::kOuter ? "DynamicOuter2Phases"
                                                      : "DynamicMatrix2Phases");

  InstrumentOptions options;
  options.sample_interval = args.get_double("sample-interval", 0.0);
  InstrumentedRep rep;
  run_instrumented_rep(config, derive_stream(seed, "rep.0"), options, rep);

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) throw std::runtime_error("cannot open " + trace_out);
    export_chrome_trace(out, rep.recording, Platform(rep.outcome.speeds),
                        &rep.sampler);
    std::cerr << "# trajectory: chrome trace -> " << trace_out
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) throw std::runtime_error("cannot open " + metrics_out);
    write_timeseries_jsonl(out, rep.sampler);
    write_metrics_json(out, rep.registry);
    out << '\n';
    std::cerr << "# trajectory: metrics JSONL -> " << metrics_out << "\n";
  }
  return true;
}

}  // namespace hetsched::bench
