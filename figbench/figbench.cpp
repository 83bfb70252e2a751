// figbench: the figure-protocol benchmark (README.md in this directory).
//
//   figbench --workload <oblivious|dataaware|scenarios|traced>
//            [--seed N] [--seconds S] [--trace 0|1] [--root DIR]
//            [--commit SHA] [--source-digest HEX] [--write-reference]
//
// Untraced (--trace 0): runs whole passes of the workload through
// hetsched's public API until --seconds is spent, timing a batch of
// set-ups and a host-speed probe before each, and reports wall_s
// (median pass), setup_s (median set-up), both in reference-host
// seconds, and peak_rss_mb. Traced
// (--trace 1): repeats rounds of a profiled pass
// (ExperimentConfig::profile), a plain serial pass and an outside-in
// reassembly of every rep with each layer call timed from here, and
// reports the per-layer metrics. Both check every output; the last
// stdout line is the result object.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/homogeneous.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "matmul/matmul_factory.hpp"
#include "obs/instrument.hpp"
#include "outer/outer_factory.hpp"
#include "platform/lower_bound.hpp"
#include "runtime/thread_pool.hpp"
#include "spec/compile.hpp"
#include "spec/parse.hpp"
#include "spec/spec.hpp"
#include "sim_identity.hpp"
#include "timing_strategy.hpp"

namespace figbench {
namespace {

using namespace hetsched;

constexpr std::uint64_t kDefaultSeed = 20140623;
// Set-ups timed before every pass. The host's speed drifts over
// seconds, so set-up samples are spread over the run like the passes
// instead of being taken in one burst at start-up.
constexpr int kSetupsPerPass = 20;
// Host-speed probe (see host_probe_s): its median time on the reference
// host, and the share of a run spent probing, taken before each pass.
constexpr double kReferenceProbeS = 0.018;
constexpr double kProbeShare = 0.05;
// Reference tolerance: z-score of the difference between the recorded
// mean and an experiment's mean at any seed (see README.md). Every run
// checks every experiment, so a false alarm has to be very rare.
constexpr double kReferenceZ = 5.0;
// Reps behind the recorded mean and per-rep standard deviation.
constexpr std::uint32_t kReferenceReps = 100;

enum class Kind { kOblivious, kDataAware, kScenarios, kTraced };

struct Options {
  Kind kind = Kind::kOblivious;
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool write_reference = false;
  std::string root = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--write-reference") {
      o.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      if (!parse_u64_strict(value, o.seed)) {
        throw std::invalid_argument("bad --seed: " + value);
      }
    } else if (key == "--seconds") {
      if (!parse_double_strict(value, o.seconds) || !(o.seconds > 0.0)) {
        throw std::invalid_argument("bad --seconds: " + value);
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("bad --trace: " + value);
      }
      o.trace = value == "1";
    } else if (key == "--root") {
      o.root = value;
    } else if (key == "--commit") {
      o.commit = value;
    } else if (key == "--source-digest") {
      o.source_digest = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (o.workload == "oblivious") {
    o.kind = Kind::kOblivious;
  } else if (o.workload == "dataaware") {
    o.kind = Kind::kDataAware;
  } else if (o.workload == "scenarios") {
    o.kind = Kind::kScenarios;
  } else if (o.workload == "traced") {
    o.kind = Kind::kTraced;
  } else {
    throw std::invalid_argument("unknown --workload '" + o.workload + "'");
  }
  return o;
}

// ---------------------------------------------------------------- set-up

std::vector<std::string> spec_paths(Kind kind) {
  switch (kind) {
    case Kind::kOblivious:
      return {"figbench/workloads/oblivious_outer.hspec",
              "figbench/workloads/oblivious_matmul.hspec"};
    case Kind::kDataAware:
      return {"figbench/workloads/dataaware_outer.hspec",
              "figbench/workloads/dataaware_matmul.hspec"};
    case Kind::kScenarios:
      return {"examples/scenarios/fig05.hspec",
              "examples/scenarios/timed_faults.hspec",
              "examples/scenarios/beta_sweep.hspec",
              "examples/scenarios/hybrid_twoclass.hspec",
              "figbench/workloads/fig09_matmul.hspec"};
    case Kind::kTraced:
      return {"figbench/workloads/traced_outer.hspec",
              "figbench/workloads/traced_matmul.hspec",
              "figbench/workloads/traced_hom.hspec"};
  }
  return {};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct Workload {
  std::vector<CompiledCampaign> campaigns;
  std::vector<Campaign> runners;  // scenarios: one Campaign per spec
  std::uint64_t spec_ns = 0;      // parse -> validate -> compile
};

// Everything before the first rep: reading the spec files, spec
// parse/validate/compile with the workload seed overlaid (the seed
// stream is tagged with the file stem), then config construction. The
// serial workloads pin one rep thread; the scenario campaigns keep auto
// rep parallelism, so an experiment's rep loop takes whatever budget
// the campaign-level lease leaves (all of it for a one-entry campaign).
Workload set_up(const Options& o) {
  Workload w;
  for (const std::string& rel : spec_paths(o.kind)) {
    const std::string text = read_file(o.root + "/" + rel);
    const std::uint64_t t0 = now_ns();
    const std::size_t slash = rel.rfind('/');
    ScenarioSpec overlay;
    overlay.seed =
        derive_stream(o.seed, rel.substr(slash + 1, rel.size() - slash - 7));
    ScenarioSpec spec = resolve_spec(merge_specs(parse_spec(text), overlay),
                                     batch_spec_defaults());
    validate_spec(spec);
    w.campaigns.push_back(compile_spec(spec));
    w.spec_ns += now_ns() - t0;
  }
  for (CompiledCampaign& c : w.campaigns) {
    if (o.kind != Kind::kScenarios) {
      for (CampaignEntry& e : c.entries) e.config.parallelism = 1;
      continue;
    }
    Campaign& runner = w.runners.emplace_back(c.name);
    for (const CampaignEntry& e : c.entries) runner.add(e.label, e.config);
  }
  return w;
}

// ---------------------------------------------------------- plain passes

std::uint64_t rep_seed(const ExperimentConfig& config, std::uint32_t r) {
  return derive_stream(config.seed, "rep." + std::to_string(r));
}

struct InstrumentedRun {
  std::string label;
  std::uint32_t rep = 0;
  ExperimentConfig config;
  SimResult sim;
  double lower_bound = 0.0;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  std::uint64_t ns = 0;
};

InstrumentedRun run_instrumented(const std::string& label,
                                 const ExperimentConfig& config,
                                 std::uint32_t r) {
  InstrumentedRun run{label, r, config, {}, 0.0, 0, 0, 0};
  const std::uint64_t t0 = now_ns();
  auto rep = std::make_unique<InstrumentedRep>();
  run_instrumented_rep(config, rep_seed(config, r), InstrumentOptions{}, *rep);
  run.sim = std::move(rep->outcome.sim);
  run.lower_bound = rep->outcome.lower_bound;
  run.events = rep->recording.stored_events();
  run.dropped = rep->recording.dropped_events();
  rep.reset();
  run.ns = now_ns() - t0;
  return run;
}

struct PassOutput {
  std::uint64_t ns = 0;
  std::vector<CampaignOutcome> outcomes;  // every experiment, in order
  std::vector<InstrumentedRun> instrumented;
  std::uint32_t campaign_threads = 1;  // most threads one campaign ran on
};

// Runs the campaign as Campaign::run does (auto parallelism) and returns
// the number of distinct threads that ran one of its experiments.
std::uint32_t run_campaign(const Campaign& runner,
                           std::vector<CampaignOutcome>& outcomes) {
  std::mutex mutex;
  std::set<std::thread::id> threads;
  outcomes = runner.run_with(
      [&](const ExperimentConfig& config) {
        {
          const std::lock_guard<std::mutex> lock(mutex);
          threads.insert(std::this_thread::get_id());
        }
        return run_experiment(config);
      },
      /*parallelism=*/0);
  return static_cast<std::uint32_t>(threads.size());
}

enum class PassMode {
  kUser,      // as a user runs it: scenario campaigns on the budget
  kSerial,    // every experiment serially (the traced run's baseline)
  kProfiled,  // kSerial with ExperimentConfig::profile on
};

// One pass of the workload. The profiler never changes results.
PassOutput run_pass(const Options& o, const Workload& w, PassMode mode) {
  PassOutput out;
  const std::uint64_t t0 = now_ns();
  if (o.kind == Kind::kScenarios && mode == PassMode::kUser) {
    for (std::size_t c = 0; c < w.runners.size(); ++c) {
      std::vector<CampaignOutcome> outcomes;
      out.campaign_threads = std::max(out.campaign_threads,
                                      run_campaign(w.runners[c], outcomes));
      for (CampaignOutcome& x : outcomes) {
        x.label = w.campaigns[c].name + "/" + x.label;
        out.outcomes.push_back(std::move(x));
      }
    }
  } else {
    for (const CompiledCampaign& c : w.campaigns) {
      for (const CampaignEntry& e : c.entries) {
        ExperimentConfig config = e.config;
        config.parallelism = 1;  // scenarios keep 0 for their campaigns
        config.profile = mode == PassMode::kProfiled;
        const std::string label = c.name + "/" + e.label;
        out.outcomes.push_back({label, config, run_experiment(config)});
        if (o.kind == Kind::kTraced && mode != PassMode::kProfiled) {
          for (std::uint32_t r = 0; r < config.reps; ++r) {
            out.instrumented.push_back(run_instrumented(label, config, r));
          }
        }
      }
    }
  }
  out.ns = now_ns() - t0;
  return out;
}

// ---------------------------------------------------------------- checks

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct Reference {
  double mean = 0.0;
  double sd = 0.0;
  std::uint32_t reps = 0;  // reps the mean and sd were measured over
};
using ReferenceTable = std::map<std::string, Reference>;  // workload\tlabel

ReferenceTable read_reference(const std::string& path) {
  ReferenceTable table;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, label;
    Reference ref;
    if (!(fields >> workload >> label >> ref.mean >> ref.sd >> ref.reps)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    table[workload + "\t" + label] = ref;
  }
  return table;
}

bool identical(const RepOutcome& a, const RepOutcome& b) {
  return figbench::identical(a.sim, b.sim) &&
         same_bits(a.lower_bound, b.lower_bound) &&
         same_bits(a.normalized, b.normalized) &&
         same_bits(a.analysis_ratio, b.analysis_ratio) &&
         same_bits(a.beta, b.beta) && a.speeds == b.speeds;
}

// Every task done exactly once, and no schedule beats the lower bound.
bool rep_valid(const std::string& what, const ExperimentConfig& config,
               const SimResult& sim, double lower_bound) {
  const std::uint64_t n = config.n;
  const std::uint64_t tasks =
      config.kernel == Kernel::kOuter ? n * n : n * n * n;
  if (sim.total_tasks_done == tasks &&
      static_cast<double>(sim.total_blocks) >= lower_bound) {
    return true;
  }
  std::fprintf(stderr,
               "check failed: %s: tasks done %llu of %llu, volume %llu vs "
               "lower bound %.17g\n",
               what.c_str(),
               static_cast<unsigned long long>(sim.total_tasks_done),
               static_cast<unsigned long long>(tasks),
               static_cast<unsigned long long>(sim.total_blocks), lower_bound);
  return false;
}

// At every seed, the experiment's mean normalized volume must sit within
// kReferenceZ standard errors of the recorded reference mean: the mean
// and sd describe the configuration's distribution over platform draws,
// and the experiment's reps are a fresh sample of it.
bool matches_reference(const Options& o, const ReferenceTable& reference,
                       const CampaignOutcome& x) {
  if (o.write_reference) return true;
  const auto it = reference.find(o.workload + "\t" + x.label);
  if (it == reference.end()) {
    std::fprintf(stderr, "check failed: %s: no reference entry\n",
                 x.label.c_str());
    return false;
  }
  const Reference& ref = it->second;
  const double tolerance =
      kReferenceZ * ref.sd *
          std::sqrt(1.0 / std::max(1u, x.config.reps) +
                    1.0 / std::max(1u, ref.reps)) +
      1e-12 * std::fabs(ref.mean);
  const double got = x.result.normalized.mean;
  if (std::fabs(got - ref.mean) <= tolerance) return true;
  std::fprintf(stderr,
               "check failed: %s: mean normalized volume %.17g, reference "
               "%.17g +- %.3g\n",
               x.label.c_str(), got, ref.mean, tolerance);
  return false;
}

void check_pass(const Options& o, const ReferenceTable& reference,
                const PassOutput& pass, Tally& tally) {
  for (const CampaignOutcome& x : pass.outcomes) {
    const bool ref_ok = matches_reference(o, reference, x);
    for (std::size_t r = 0; r < x.result.reps.size(); ++r) {
      const RepOutcome& rep = x.result.reps[r];
      tally.add(ref_ok && rep_valid(x.label + " rep " + std::to_string(r),
                                    x.config, rep.sim, rep.lower_bound));
    }
  }
  for (const InstrumentedRun& run : pass.instrumented) {
    const std::string what =
        run.label + " instrumented rep " + std::to_string(run.rep);
    tally.add(rep_valid(what, run.config, run.sim, run.lower_bound));
  }
}

// ------------------------------------------------- traced reassembly

bool is_two_phase(const std::string& strategy) {
  return strategy.find("2Phases") != std::string::npos;
}

struct StrategyLayer {
  RequestCounts counts;
  std::uint64_t reps = 0;
  std::vector<std::uint64_t> samples;  // clock-corrected ns
};

struct ModuleLayer {  // outer or matmul strategy construction / rewind
  std::uint64_t build_ns = 0, builds = 0;
  std::uint64_t reset_ns = 0, resets = 0;
  std::uint64_t request_ns = 0;  // extrapolated from the samples
};

struct Reassembly {
  std::map<std::string, StrategyLayer> strategies;
  ModuleLayer modules[2];  // [outer, matmul]
  std::uint64_t draw_ns = 0, draws = 0, bound_ns = 0;
  std::uint64_t beta_ns = 0, ratio_ns = 0, analysis_calls = 0;
  std::uint64_t sim_ns[2] = {0, 0};       // [flat, timed], inclusive
  std::uint64_t sim_req_ns[2] = {0, 0};   // on_request share of sim_ns
  std::uint64_t sim_tasks[2] = {0, 0};
  std::uint64_t requeued = 0, crashed = 0;
  std::uint64_t obs_ns = 0, obs_reps = 0, obs_plain_ns = 0;
  std::uint64_t events = 0, dropped = 0, divergent = 0;
  std::uint64_t wall_ns = 0;
};

// The same public calls run_single makes, in the same order, each timed
// from here. `cached` mirrors RepContext::strategy.
RepOutcome reassemble_rep(const ExperimentConfig& config, std::uint64_t seed,
                          std::unique_ptr<Strategy>& cached,
                          std::vector<std::uint64_t>& raw_samples,
                          std::uint64_t clock_ns, Reassembly& acc) {
  const bool outer = config.kernel == Kernel::kOuter;
  ModuleLayer& module = acc.modules[outer ? 0 : 1];
  const std::uint64_t t0 = now_ns();
  Rng speed_rng(derive_stream(seed, "experiment.speeds"));
  const Platform platform =
      make_platform(*config.scenario.speeds, config.p, speed_rng);
  const std::uint64_t t1 = now_ns();
  const double beta = resolve_beta(config);
  const std::uint64_t t2 = now_ns();
  acc.draw_ns += t1 - t0;
  ++acc.draws;
  acc.beta_ns += t2 - t1;
  ++acc.analysis_calls;

  double phase2_fraction = 0.0;
  if (is_two_phase(config.strategy)) {
    phase2_fraction = config.phase2_fraction.has_value()
                          ? *config.phase2_fraction
                          : std::exp(-beta);
  }
  std::unique_ptr<Strategy> owned;
  Strategy* strategy = nullptr;
  if (cached != nullptr && cached->reset(seed)) strategy = cached.get();
  const bool was_reset = strategy != nullptr;
  if (strategy == nullptr) {
    if (outer) {
      OuterStrategyOptions options;
      options.phase2_fraction = phase2_fraction;
      options.lanes = config.lanes;
      owned = make_outer_strategy(config.strategy, OuterConfig{config.n},
                                  config.p, seed, options);
    } else {
      MatmulStrategyOptions options;
      options.phase2_fraction = phase2_fraction;
      options.lanes = config.lanes;
      owned = make_matmul_strategy(config.strategy, MatmulConfig{config.n},
                                   config.p, seed, options);
    }
    strategy = owned.get();
  }
  strategy->prepare_lanes();
  const std::uint64_t t3 = now_ns();
  (was_reset ? module.reset_ns : module.build_ns) += t3 - t2;
  ++(was_reset ? module.resets : module.builds);

  raw_samples.clear();
  TimingStrategy wrapped(*strategy, raw_samples);
  RepOutcome out;
  if (config.timed) {
    TimedSimConfig sim_config;
    sim_config.seed = seed;
    sim_config.comm = config.comm;
    sim_config.lookahead = config.lookahead;
    sim_config.perturbation = config.scenario.perturbation;
    sim_config.faults = config.faults;
    out.sim = simulate_timed(wrapped, platform, sim_config);
  } else {
    SimConfig sim_config;
    sim_config.seed = seed;
    sim_config.perturbation = config.scenario.perturbation;
    sim_config.faults = config.faults;
    out.sim = simulate(wrapped, platform, sim_config);
  }
  const std::uint64_t t4 = now_ns();
  if (owned != nullptr) cached = std::move(owned);
  out.speeds = platform.speeds();
  out.beta = beta;
  const auto rs = platform.relative_speeds();
  out.lower_bound = outer ? outer_lower_bound(config.n, rs)
                          : matmul_lower_bound(config.n, rs);
  out.normalized = out.sim.normalized_volume(out.lower_bound);
  const std::uint64_t t5 = now_ns();
  double analysis_beta = beta;
  if (!(beta > 0.0)) {
    analysis_beta = outer ? beta_homogeneous_outer(config.p, config.n)
                          : beta_homogeneous_matmul(config.p, config.n);
    ++acc.analysis_calls;
  }
  const std::uint64_t t6 = now_ns();
  out.analysis_ratio =
      analysis_ratio_for(config.kernel, config.n, out.speeds, analysis_beta);
  const std::uint64_t t7 = now_ns();
  ++acc.analysis_calls;
  acc.bound_ns += t5 - t4;
  acc.beta_ns += t6 - t5;
  acc.ratio_ns += t7 - t6;

  // Sampled on_request time, extrapolated to every call of the rep.
  StrategyLayer& layer = acc.strategies[config.strategy];
  std::uint64_t sampled = 0;
  for (const std::uint64_t raw : raw_samples) {
    const std::uint64_t ns = raw > clock_ns ? raw - clock_ns : 0;
    sampled += ns;
    layer.samples.push_back(ns);
  }
  const RequestCounts& c = wrapped.counts();
  const std::uint64_t request_ns =
      raw_samples.empty() ? 0 : sampled * c.requests / raw_samples.size();
  layer.counts.requests += c.requests;
  layer.counts.useful += c.useful;
  layer.counts.tasks += c.tasks;
  layer.counts.blocks += c.blocks;
  ++layer.reps;
  module.request_ns += request_ns;
  const int engine = config.timed ? 1 : 0;
  acc.sim_ns[engine] += t4 - t3;
  acc.sim_req_ns[engine] += std::min(request_ns, t4 - t3);
  acc.sim_tasks[engine] += out.sim.total_tasks_done;
  acc.requeued += out.sim.requeued_tasks;
  acc.crashed += out.sim.crashed_workers;
  return out;
}

// Median cost of an empty timed interval, subtracted from each sample.
// One timed run of a fixed event-queue loop, like the sim core's: pop the
// earliest of 200 (time, worker) events and push it back later. The
// reference host's speed drifts by up to 2x over minutes; this probe, which
// no change to hetsched can alter, tracks that drift, and its median over
// a run against kReferenceProbeS is the run's host speed (README.md,
// "Noise").
double host_probe_s() {
  using Event = std::pair<double, std::uint32_t>;
  const std::uint64_t t0 = now_ns();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  for (std::uint32_t w = 0; w < 200; ++w) queue.push({w * 0.37, w});
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const Event e = queue.top();
    queue.pop();
    queue.push({e.first + 1.0 + static_cast<double>(x & 1023) * 1e-3,
                e.second});
  }
  static volatile double sink;
  sink = queue.top().first;
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::uint64_t clock_overhead_ns() {
  std::vector<std::uint64_t> d(2001);
  for (auto& x : d) {
    const std::uint64_t t0 = now_ns();
    x = now_ns() - t0;
  }
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  return d[d.size() / 2];
}

// Rebuilds every rep of the pass from outside and checks it against the
// plain pass's run_experiment reps; on the traced workload it also times
// the instrumented reps (obs layer) and counts the ones that diverge.
Reassembly reassemble_pass(const Options& o, const PassOutput& plain,
                           std::uint64_t clock_ns, Tally& tally) {
  Reassembly acc;
  std::vector<std::uint64_t> raw_samples;
  raw_samples.reserve(1u << 17);
  const std::uint64_t start = now_ns();
  for (const CampaignOutcome& x : plain.outcomes) {
    const ExperimentConfig& config = x.config;
    const std::uint32_t shards = std::min(kRepShards, config.reps);
    std::vector<RepOutcome> reps(config.reps);
    std::vector<std::uint64_t> ns(config.reps);
    for (std::uint32_t s = 0; s < shards; ++s) {
      std::unique_ptr<Strategy> cached;
      for (std::uint32_t r = s; r < config.reps; r += kRepShards) {
        const std::uint64_t t0 = now_ns();
        reps[r] = reassemble_rep(config, rep_seed(config, r), cached,
                                 raw_samples, clock_ns, acc);
        ns[r] = now_ns() - t0;
      }
    }
    for (std::uint32_t r = 0; r < config.reps; ++r) {
      const bool same = identical(reps[r], x.result.reps[r]);
      if (!same) {
        std::fprintf(stderr, "check failed: %s rep %u: reassembly differs "
                     "from run_experiment\n", x.label.c_str(), r);
      }
      tally.add(same);
    }
    if (o.kind != Kind::kTraced) continue;
    for (std::uint32_t r = 0; r < config.reps; ++r) {
      const InstrumentedRun run = run_instrumented(x.label, config, r);
      acc.obs_ns += run.ns;
      ++acc.obs_reps;
      acc.obs_plain_ns += ns[r];
      acc.events += run.events;
      acc.dropped += run.dropped;
      if (run.sim.total_blocks != x.result.reps[r].sim.total_blocks) {
        ++acc.divergent;
      }
    }
  }
  acc.wall_ns = now_ns() - start;
  return acc;
}

// ------------------------------------------------------------- metrics

struct Metric {
  double value = 0.0;
  const char* unit = "";
};
using MetricMap = std::map<std::string, Metric>;

double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Median of integer-ns samples, taken as the mean of the central tenth
// (45th to 55th percentile) so it is not quantized to whole ns.
double central_median(std::vector<std::uint64_t>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() * 45 / 100;
  const std::size_t hi = std::max(lo + 1, v.size() * 55 / 100);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += static_cast<double>(v[i]);
  return sum / static_cast<double>(hi - lo);
}

// Layer self times inside the reassembly pass; their sum against the
// pass wall is trace.coverage.
double covered_ns(const Reassembly& a) {
  double sum = static_cast<double>(a.draw_ns + a.bound_ns + a.beta_ns +
                                   a.ratio_ns + a.obs_ns);
  for (const ModuleLayer& m : a.modules) sum += m.build_ns + m.reset_ns;
  sum += a.sim_ns[0] + a.sim_ns[1];
  return sum;
}

void strategy_metrics(MetricMap& m, const std::string& mod,
                      const std::string& name, StrategyLayer& s) {
  const double req = static_cast<double>(s.counts.requests);
  m[mod + ".request_ns." + name] = {central_median(s.samples), "ns"};
  m[mod + ".requests_per_rep." + name] = {
      ratio(req, static_cast<double>(s.reps)), "count/rep"};
  m[mod + ".tasks_per_request." + name] = {
      ratio(static_cast<double>(s.counts.tasks), req), "count/request"};
  m[mod + ".blocks_per_request." + name] = {
      ratio(static_cast<double>(s.counts.blocks), req), "count/request"};
  if (name.rfind("Dynamic", 0) == 0) {
    m[mod + ".useful_request_ratio." + name] = {
        ratio(static_cast<double>(s.counts.useful), req), "ratio"};
  }
}

MetricMap reassembly_metrics(Reassembly& a) {
  MetricMap m;
  for (const std::string& name : outer_strategy_names()) {
    strategy_metrics(m, "outer", name, a.strategies[name]);
  }
  for (const std::string& name : matmul_strategy_names()) {
    strategy_metrics(m, "matmul", name, a.strategies[name]);
  }
  for (int k = 0; k < 2; ++k) {
    const ModuleLayer& mod = a.modules[k];
    const std::string name = k == 0 ? "outer" : "matmul";
    m[name + ".build_ms"] = {
        ratio(ms(mod.build_ns), static_cast<double>(mod.builds)), "ms"};
    m[name + ".reset_ms"] = {
        ratio(ms(mod.reset_ns), static_cast<double>(mod.resets)), "ms"};
    m[name + ".self_ms"] = {
        ms(mod.build_ns + mod.reset_ns + mod.request_ns), "ms"};
  }
  const auto self_ns = [&](int e) {
    return static_cast<double>(a.sim_ns[e] - a.sim_req_ns[e]);
  };
  const auto count = [](std::uint64_t n) {
    return Metric{static_cast<double>(n), "count"};
  };
  m["sim.self_ns_per_task"] = {
      ratio(self_ns(0), static_cast<double>(a.sim_tasks[0])), "ns"};
  m["sim.timed.self_ns_per_task"] = {
      ratio(self_ns(1), static_cast<double>(a.sim_tasks[1])), "ns"};
  m["sim.self_ms"] = {(self_ns(0) + self_ns(1)) * 1e-6, "ms"};
  m["sim.requeued_tasks"] = count(a.requeued);
  m["sim.crashed_workers"] = count(a.crashed);
  m["analysis.beta_ms"] = {ms(a.beta_ns), "ms"};
  m["analysis.ratio_ms"] = {ms(a.ratio_ns), "ms"};
  m["analysis.calls"] = count(a.analysis_calls);
  const double draws = static_cast<double>(a.draws);
  m["platform.draw_us"] = {
      ratio(static_cast<double>(a.draw_ns) * 1e-3, draws), "us"};
  m["platform.bound_us"] = {
      ratio(static_cast<double>(a.bound_ns) * 1e-3, draws), "us"};
  m["obs.rep_ms"] = {ratio(ms(a.obs_ns), static_cast<double>(a.obs_reps)),
                     "ms"};
  m["obs.overhead_x"] = {ratio(static_cast<double>(a.obs_ns),
                               static_cast<double>(a.obs_plain_ns)),
                         "x"};
  m["obs.events_recorded"] = count(a.events);
  m["obs.dropped_events"] = count(a.dropped);
  m["obs.divergent_reps"] = count(a.divergent);
  m["trace.coverage"] = {
      ratio(covered_ns(a), static_cast<double>(a.wall_ns)), "ratio"};
  return m;
}

// core.* from the profiled pass: build/reset call counts and the rep
// loop's own time (experiment wall minus the profiler's top-level
// sites; it includes the platform and analysis calls run_single makes
// outside any profiled site).
MetricMap profile_metrics(const PassOutput& profiled) {
  std::uint64_t builds = 0, resets = 0;
  double self_s = 0.0;
  for (const CampaignOutcome& x : profiled.outcomes) {
    const ProfileTotals& p = x.result.profile;
    builds += p.site(ProfSite::kStrategyBuild).calls;
    resets += p.site(ProfSite::kStrategyReset).calls;
    std::uint64_t sites_ns = 0;
    for (const ProfSite s : {ProfSite::kStrategyBuild, ProfSite::kStrategyReset,
                             ProfSite::kLanePrep, ProfSite::kEngineRun,
                             ProfSite::kAggregate}) {
      sites_ns += p.site(s).ns;
    }
    self_s += x.result.wall_time_sec - static_cast<double>(sites_ns) * 1e-9;
  }
  return {{"core.builds", {static_cast<double>(builds), "count"}},
          {"core.resets", {static_cast<double>(resets), "count"}},
          {"core.self_ms", {self_s * 1e3, "ms"}}};
}

// ---------------------------------------------------------------- output

void print_result(const Tally& tally, const MetricMap& metrics) {
  std::ostringstream line;
  {
    JsonWriter json(line, /*pretty=*/false, /*double_precision=*/17);
    json.begin_object();
    json.field("correct", tally.failed == 0);
    json.field("attempted", tally.attempted);
    json.field("failed", tally.failed);
    json.key("metrics");
    json.begin_object();
    for (const auto& [name, m] : metrics) {
      json.key(name);
      json.begin_object();
      json.field("value", m.value);
      json.field("unit", m.unit);
      json.end_object();
    }
    json.end_object();
    json.end_object();
  }
  std::cout << line.str() << std::endl;
}

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

// Threads the run actually used, maximised over its passes.
struct ThreadUse {
  std::uint32_t rep = 1;       // rep_parallelism of any one experiment
  std::uint32_t campaign = 1;  // threads running one campaign's experiments

  void add(const PassOutput& pass) {
    campaign = std::max(campaign, pass.campaign_threads);
    for (const CampaignOutcome& x : pass.outcomes) {
      rep = std::max(rep, x.result.rep_parallelism);
    }
  }
};

void print_provenance(const Options& o, const ThreadUse& threads,
                      double first_setup_s, const std::vector<double>& pass_s,
                      double host_speed) {
  std::ostringstream line;
  {
    JsonWriter json(line, /*pretty=*/false);
    json.begin_object();
    json.key("provenance");
    json.begin_object();
    json.field("workload", o.workload);
    json.field("seed", o.seed);
    json.field("trace", o.trace);
    json.field("seconds", o.seconds);
    json.field("first_setup_s", first_setup_s);
    json.key("pass_s");
    json.begin_array();
    for (const double s : pass_s) json.value(s);
    json.end_array();
    if (host_speed > 0.0) json.field("host_speed", host_speed);
    json.field("nproc", static_cast<std::uint64_t>(affinity_cpus()));
    json.field("hardware_concurrency",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    json.field("compiler",
               std::string(FIGBENCH_COMPILER) + " (" + __VERSION__ + ")");
    json.field("build_type", FIGBENCH_BUILD_TYPE);
#ifdef NDEBUG
    json.field("ndebug", true);
#else
    json.field("ndebug", false);
#endif
    json.field("commit", o.commit);
    json.field("source_digest", o.source_digest);
    json.field("rep_threads", static_cast<std::uint64_t>(threads.rep));
    json.field("campaign_threads",
               static_cast<std::uint64_t>(threads.campaign));
    json.field("parallel_budget",
               static_cast<std::uint64_t>(parallel_budget_capacity()));
    json.end_object();
    json.end_object();
  }
  std::cout << line.str() << std::endl;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int run(const Options& o) {
  if (std::string(FIGBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "figbench: refusing a %s build; use Release\n",
                 FIGBENCH_BUILD_TYPE);
    return 3;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "figbench: refusing a build without NDEBUG\n");
  return 3;
#endif
  // The process-wide parallelism budget is min(2, nproc). Scenario
  // campaigns claim it at campaign level, and a one-entry campaign's
  // rep loop claims it instead, so no more than two threads ever run.
  const unsigned budget = std::min(2u, std::max(1u, affinity_cpus()));
  set_parallel_budget_capacity(budget);

  const ReferenceTable reference =
      o.write_reference ? ReferenceTable{}
                        : read_reference(o.root + "/figbench/reference.tsv");
  const std::uint64_t clock_ns = clock_overhead_ns();
  const std::uint64_t start = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };

  // The first set-up is cold (file reads, first allocations); setup_s is
  // the median over all of them, most of them warm (see README.md).
  std::vector<double> setup_s, spec_ms;
  Workload workload;
  const auto set_up_timed = [&] {
    for (int i = 0; i < kSetupsPerPass; ++i) {
      const std::uint64_t t0 = now_ns();
      workload = set_up(o);
      setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      spec_ms.push_back(ms(workload.spec_ns));
    }
  };
  set_up_timed();

  Tally tally;
  if (o.write_reference) {
    const PassOutput pass = run_pass(o, workload, PassMode::kUser);
    check_pass(o, reference, pass, tally);
    std::printf("# figbench reference: workload label mean sd reps (mean and "
                "sd of the normalized volume over %u reps)\n",
                kReferenceReps);
    for (const CampaignOutcome& x : pass.outcomes) {
      ExperimentConfig sample = x.config;
      sample.reps = kReferenceReps;
      sample.seed = derive_stream(x.config.seed, "figbench.reference");
      sample.parallelism = budget;
      const Summary normalized = run_experiment(sample).normalized;
      std::printf("%s\t%s\t%.17g\t%.17g\t%u\n", o.workload.c_str(),
                  x.label.c_str(), normalized.mean, normalized.stddev,
                  kReferenceReps);
    }
    return tally.failed == 0 ? 0 : 1;
  }

  MetricMap out;
  ThreadUse threads;
  if (!o.trace) {
    std::vector<double> pass_s, probe_s;
    do {
      if (!pass_s.empty()) set_up_timed();
      double probed_s = 0.0;
      do {
        probe_s.push_back(host_probe_s());
        probed_s += probe_s.back();
      } while (!pass_s.empty() && probed_s < kProbeShare * pass_s.back());
      const PassOutput pass = run_pass(o, workload, PassMode::kUser);
      pass_s.push_back(static_cast<double>(pass.ns) * 1e-9);
      check_pass(o, reference, pass, tally);
      threads.add(pass);
    } while (elapsed_s() + median(pass_s) <= o.seconds);
    // Above 1 when this run's host was faster than the reference host.
    const double host_speed = kReferenceProbeS / median(probe_s);
    print_provenance(o, threads, setup_s.front(), pass_s, host_speed);
    out["wall_s"] = {median(pass_s) * host_speed, "s"};
    out["setup_s"] = {median(setup_s) * host_speed, "s"};
    out["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    struct Series {
      const char* unit = "";
      std::vector<double> values;
    };
    std::vector<double> plain_s, traced_s;
    std::map<std::string, Series> layers;
    do {
      if (!plain_s.empty()) set_up_timed();
      // The profiled pass goes first so that the process's cold start
      // (fresh pages for the first task pools) does not land on the
      // plain/reassembly pair that trace.overhead_x compares.
      const PassOutput profiled = run_pass(o, workload, PassMode::kProfiled);
      check_pass(o, reference, profiled, tally);
      const PassOutput plain = run_pass(o, workload, PassMode::kSerial);
      check_pass(o, reference, plain, tally);
      threads.add(profiled);
      threads.add(plain);
      Reassembly acc = reassemble_pass(o, plain, clock_ns, tally);
      MetricMap m = reassembly_metrics(acc);
      for (const auto& [k, v] : profile_metrics(profiled)) m[k] = v;
      const double coverage = m["trace.coverage"].value;
      if (std::fabs(coverage - 1.0) > 0.05) {
        std::fprintf(stderr, "check failed: layer self times cover %.4f of the "
                     "traced wall\n", coverage);
        tally.add(false);
      } else {
        tally.add(true);
      }
      plain_s.push_back(static_cast<double>(plain.ns) * 1e-9);
      traced_s.push_back(static_cast<double>(acc.wall_ns) * 1e-9);
      for (const auto& [k, v] : m) {
        layers[k].unit = v.unit;
        layers[k].values.push_back(v.value);
      }
    } while (elapsed_s() * (1.0 + 1.0 / static_cast<double>(plain_s.size())) <=
             o.seconds);
    print_provenance(o, threads, setup_s.front(), plain_s, 0.0);
    for (const auto& [k, series] : layers) {
      out[k] = {median(series.values), series.unit};
    }
    out["spec.compile_ms"] = {median(spec_ms), "ms"};
    out["trace.overhead_x"] = {median(traced_s) / median(plain_s), "x"};
  }
  print_result(tally, out);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace figbench

int main(int argc, char** argv) {
  try {
    return figbench::run(figbench::parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "figbench: %s\n", e.what());
    return 2;
  }
}
