// perfbench: runs one end-to-end benchmark workload against the ECRA
// libraries and prints one raw JSON record on stdout (perfbench/run.py turns
// it into the benchmark's metrics, checks and per-layer table).
//
//   perfbench --workload fig2-taxi|online-taxi|agg-1e5 --seed N
//             --seconds S [--trace-out FILE]
//
// A run is a closed loop of units: each unit builds its instances from
// (seed, unit index) — the timed set-up — then hands only those instances
// to the program's public entry points and waits for the answer before the
// next unit starts. Units repeat until --seconds have passed and at least
// the workload's quality_units have run; those first units also fix the
// run's quality figures, so they are a pure function of (workload, seed).
//
// With --trace-out the run has two phases: an untraced phase for half the
// time, then a traced phase replaying exactly the same units with a trace
// session installed. The untraced phase supplies every timing; the traced
// phase supplies the span file and metric-counter deltas for the per-layer
// fold, and must reproduce the untraced quality figures bit for bit.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "algo/online_approx.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/aggregated.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "timed_algorithm.h"

#ifndef ECA_BUILD_TYPE
#define ECA_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace eca::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// A run's allocation is infeasible when it violates demand, capacity or
// sign constraints by more than this (the repository-wide tolerance).
constexpr double kViolationTolerance = 1e-5;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_out;  // empty = untraced run
  // The workload's fixed scale (kWorkloads).
  int threads = 0;  // worker threads passed to the program
  std::size_t users = 0;
  std::size_t slots = 0;
  int instances = 0;      // fig2-taxi: experiment repetitions per unit
  int quality_units = 0;  // units that fix the quality figures
};

// One unit's measurements. Costs are weighted P0 objectives.
struct UnitResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double user_slots = 0.0;  // Σ J·T over the unit's instances
  double approx_cost = 0.0;
  double offline_cost = 0.0;  // 0 when the workload has no offline-opt
  double max_violation = 0.0;
  std::uint64_t decides = 0;         // online decisions attempted
  std::uint64_t infeasible = 0;      // of which in a run over tolerance
  std::uint64_t offline_solves = 0;  // offline-opt solves (all optimal)
  std::size_t classes_max = 0;       // agg-1e5 only
  double collapse_ratio = 0.0;       // agg-1e5 only: J / mean classes
  // Units of one stratum share an input class (online-taxi: the hourly
  // case), so that timings can be summarized per class.
  std::size_t stratum = 0;
};

// splitmix64 of (a, b): distinct, well-mixed instance seeds.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// online-taxi draws unit u's instance seed from [1, kOnlineSeedRange] for the
// hourly case u % 6. On the (hour, seed) pairs below, the seed code's slot-LP
// interior-point solve reports a baseline's slot LP dual-infeasible on the
// cold retry too, and the baseline aborts the process (an open solver
// defect, found by running the full roster on every pair in the range).
// They are redrawn, so that no operation of the workload fails.
constexpr std::uint64_t kOnlineSeedRange = 64;
constexpr std::pair<std::size_t, std::uint64_t> kOnlineAborts[] = {{5, 17}};

std::uint64_t online_instance_seed(std::uint64_t seed, std::size_t unit) {
  for (std::uint64_t draw = 0;; ++draw) {
    const std::pair<std::size_t, std::uint64_t> candidate{
        unit % 6, 1 + mix(mix(seed, unit), draw) % kOnlineSeedRange};
    if (std::find(std::begin(kOnlineAborts), std::end(kOnlineAborts),
                  candidate) == std::end(kOnlineAborts)) {
      return candidate.second;
    }
  }
}

// A unit's set-up builds its inputs this many times and keeps the median
// build time: one build of the taxi workloads takes a few milliseconds, too
// short to time once.
constexpr int kSetupBuilds = 5;

template <typename Build>
std::invoke_result_t<Build> timed_setup(UnitResult& r, Build build) {
  std::invoke_result_t<Build> inputs;
  std::array<double, kSetupBuilds> times{};
  for (double& t : times) {
    obs::TraceSpan span(obs::global_trace(), "bench.make_instance");
    const auto start = Clock::now();
    inputs = build();
    t = seconds_since(start);
  }
  std::sort(times.begin(), times.end());
  r.setup_s = times[kSetupBuilds / 2];
  return inputs;
}

std::vector<sim::NamedFactory> timed_roster(DecideLog& log) {
  std::vector<sim::NamedFactory> roster;
  for (sim::NamedFactory& f :
       sim::paper_algorithms(/*include_static_once=*/true)) {
    roster.push_back({f.name, [make = std::move(f.make), &log] {
                        obs::TraceSpan span(obs::global_trace(),
                                            "bench.factory");
                        return algo::AlgorithmPtr(
                            std::make_unique<TimedAlgorithm>(make(), &log));
                      }});
  }
  return roster;
}

sim::ScenarioOptions taxi_options(const Config& c, std::uint64_t seed) {
  sim::ScenarioOptions options;
  options.num_users = c.users;
  options.num_slots = c.slots;
  options.workload.distribution = workload::Distribution::kPower;
  options.seed = seed;
  return options;
}

// fig2-taxi: the paper's Fig-2 protocol in one run_experiment call — a fixed
// table of the six hourly cases x repetitions (rep -> hour rep % 6, seed
// kFig2TableSeed + 1000 * (rep / 6)), full roster plus offline-opt. The
// table does not depend on the run seed: the offline PDHG solve time varies
// by two orders of magnitude between instances, so a seed-drawn table of
// any size that fits a run would measure which instances were drawn (see
// perfbench/README.md).
constexpr std::uint64_t kFig2TableSeed = 1;

UnitResult fig2_unit(const Config& c, std::size_t, DecideLog& log) {
  UnitResult r;
  const std::vector<model::Instance> instances = timed_setup(r, [&] {
    std::vector<model::Instance> built;
    for (int rep = 0; rep < c.instances; ++rep) {
      built.push_back(sim::make_rome_taxi_instance(
          taxi_options(c, kFig2TableSeed +
                              1000 * static_cast<std::uint64_t>(rep / 6)),
          rep % 6));
    }
    return built;
  });

  const std::vector<sim::NamedFactory> roster = timed_roster(log);
  sim::ExperimentOptions options;
  options.repetitions = c.instances;
  options.threads = c.threads;
  options.offline.lp_threads = 1;
  const auto start = Clock::now();
  sim::ExperimentResult result;
  {
    obs::TraceSpan span(obs::global_trace(), "bench.run_experiment");
    result = sim::run_experiment(
        [&](int rep) {
          obs::TraceSpan cb(obs::global_trace(), "bench.instance_cb");
          return instances[static_cast<std::size_t>(rep)];
        },
        roster, options);
  }
  r.wall_s = seconds_since(start);

  const double reps = static_cast<double>(c.instances);
  r.user_slots = reps * static_cast<double>(c.users * c.slots);
  r.offline_cost = result.offline_cost.mean() * reps;
  r.offline_solves = static_cast<std::uint64_t>(c.instances);
  for (const sim::AlgorithmSummary& s : result.algorithms) {
    if (s.name == "online-approx") r.approx_cost = s.absolute_cost.mean() * reps;
    r.max_violation = std::max(r.max_violation, s.worst_violation);
    const std::uint64_t decides =
        static_cast<std::uint64_t>(c.instances) * c.slots;
    r.decides += decides;
    // Only the worst repetition is reported per algorithm; count all of
    // its decides as failed when it is over tolerance.
    if (s.worst_violation > kViolationTolerance) r.infeasible += decides;
  }
  return r;
}

// online-taxi: each of the six online algorithms serves one taxi instance
// slot by slot through Simulator::run, serially (no slot fan-out: an
// operator cannot decide slot t+1 before slot t has happened).
UnitResult online_unit(const Config& c, std::size_t unit, DecideLog& log) {
  UnitResult r;
  r.stratum = unit % 6;
  const model::Instance instance = timed_setup(r, [&] {
    return sim::make_rome_taxi_instance(
        taxi_options(c, online_instance_seed(c.seed, unit)),
        static_cast<int>(unit % 6));
  });

  sim::SimulatorOptions options;
  options.baseline_threads = 1;
  for (const sim::NamedFactory& f : timed_roster(log)) {
    algo::AlgorithmPtr algorithm = f.make();
    const auto start = Clock::now();
    sim::SimulationResult sim;
    {
      obs::TraceSpan span(obs::global_trace(), "bench.simulate");
      sim = sim::Simulator::run(instance, *algorithm, options);
    }
    r.wall_s += seconds_since(start);
    if (sim.algorithm == "online-approx") r.approx_cost = sim.weighted_total;
    r.max_violation = std::max(r.max_violation, sim.max_violation);
    r.decides += c.slots;
    if (sim.max_violation > kViolationTolerance) r.infeasible += c.slots;
  }
  r.user_slots = static_cast<double>(c.users * c.slots);
  return r;
}

// agg-1e5: the streaming class-space online-approx path on random-walk
// mobility (the paper's Fig-5 setting) at large J.
UnitResult agg_unit(const Config& c, std::size_t unit, DecideLog&) {
  UnitResult r;
  sim::ScenarioOptions scenario;
  scenario.num_users = c.users;
  scenario.num_slots = c.slots;
  scenario.seed = mix(c.seed, unit) % 1000000007ULL;
  scenario.retain_positions = false;
  const model::Instance instance =
      timed_setup(r, [&] { return sim::make_random_walk_instance(scenario); });

  algo::OnlineApproxOptions options;
  options.aggregate_users = true;
  options.solver.slot_threads = c.threads;
  const auto start = Clock::now();
  sim::AggregatedRunResult result;
  {
    obs::TraceSpan span(obs::global_trace(), "bench.agg_run");
    result = sim::run_aggregated_online_approx(instance, options);
  }
  r.wall_s = seconds_since(start);
  r.user_slots = static_cast<double>(c.users * c.slots);
  r.approx_cost = result.weighted_total;
  r.max_violation = result.max_violation;
  r.decides = c.slots;
  if (result.max_violation > kViolationTolerance) r.infeasible = c.slots;
  r.classes_max = result.max_classes;
  double classes = 0.0;
  for (const std::size_t k : result.classes_per_slot) {
    classes += static_cast<double>(k);
  }
  r.collapse_ratio = classes > 0.0
                         ? static_cast<double>(c.users * c.slots) / classes
                         : 0.0;
  return r;
}

using UnitFn = UnitResult (*)(const Config&, std::size_t, DecideLog&);

struct Workload {
  const char* name;
  UnitFn run_unit;
  std::size_t users;
  std::size_t slots;
  int instances;
  int threads;
  int quality_units;
};

// Fixed scales; perfbench/README.md gives the reasons.
constexpr Workload kWorkloads[] = {
    {"fig2-taxi", &fig2_unit, 8, 8, 24, 4, 1},
    {"online-taxi", &online_unit, 128, 48, 1, 1, 6},
    {"agg-1e5", &agg_unit, 100000, 6, 1, 1, 4},
};

struct Phase {
  std::vector<UnitResult> units;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

// Runs units 0, 1, ... while one more unit of the mean length so far still
// ends within `seconds`, but at least `min_units` and at most `max_units`.
Phase run_phase(const Config& c, UnitFn run_unit, DecideLog& log,
                double seconds, std::size_t min_units, std::size_t max_units) {
  Phase phase;
  phase.start_ns = obs::steady_clock_ns();
  const auto start = Clock::now();
  for (std::size_t u = 0; u < max_units; ++u) {
    const double elapsed = seconds_since(start);
    if (u >= min_units && elapsed + elapsed / static_cast<double>(u) > seconds) {
      break;
    }
    phase.units.push_back(run_unit(c, u, log));
  }
  phase.end_ns = obs::steady_clock_ns();
  return phase;
}

// ---- JSON output -----------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += num(values[i]);
  }
  return out + "]";
}

std::string units_json(const Phase& phase) {
  std::string out = "[";
  for (std::size_t i = 0; i < phase.units.size(); ++i) {
    const UnitResult& u = phase.units[i];
    if (i > 0) out += ",";
    out += "{\"setup_s\":" + num(u.setup_s) + ",\"wall_s\":" + num(u.wall_s) +
           ",\"user_slots\":" + num(u.user_slots) +
           ",\"decides\":" + std::to_string(u.decides) +
           ",\"infeasible\":" + std::to_string(u.infeasible) +
           ",\"offline_solves\":" + std::to_string(u.offline_solves) +
           ",\"max_violation\":" + num(u.max_violation) +
           ",\"classes_max\":" + std::to_string(u.classes_max) +
           ",\"collapse_ratio\":" + num(u.collapse_ratio) +
           ",\"stratum\":" + std::to_string(u.stratum) + "}";
  }
  return out + "]";
}

// Quality over the first `k` units: sums of costs, ratio of sums.
std::string quality_json(const Phase& phase, std::size_t k) {
  double approx = 0.0;
  double offline = 0.0;
  for (std::size_t i = 0; i < k && i < phase.units.size(); ++i) {
    approx += phase.units[i].approx_cost;
    offline += phase.units[i].offline_cost;
  }
  return "{\"units\":" + std::to_string(k) + ",\"approx_cost\":" +
         num(approx) + ",\"offline_cost\":" + num(offline) +
         ",\"approx_ratio\":" + num(offline > 0.0 ? approx / offline : 0.0) +
         "}";
}

bool same_quality(const UnitResult& a, const UnitResult& b) {
  return a.approx_cost == b.approx_cost && a.offline_cost == b.offline_cost &&
         a.max_violation == b.max_violation && a.classes_max == b.classes_max;
}

std::string counter_deltas(const obs::MetricsSnapshot& before,
                           const obs::MetricsSnapshot& after) {
  std::string out = "{";
  const auto field = [&out](const std::string& name, const std::string& v) {
    if (out.size() > 1) out += ',';
    out += quoted(name);
    out += ':';
    out += v;
  };
  for (const auto& [name, value] : after.counters) {
    field(name, std::to_string(value - before.counter(name)));
  }
  for (const auto& [name, value] : after.double_counters) {
    field(name, num(value - before.double_counter(name)));
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

// Any ECA_* variable (thread counts, chunk floors, fault injection, trace,
// events, metrics, telemetry) would silently change the measured program.
void refuse_eca_environment() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "ECA_", 4) == 0) {
      usage_error(std::string("refusing to run with ") + *env +
                  " set: the benchmark measures the default program");
    }
  }
}

Config parse(int argc, char** argv) {
  Config c;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value after " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    const double number = std::strtod(value.c_str(), &end);
    const bool numeric = end != value.c_str() && *end == '\0' && number >= 0;
    if (flag == "--workload") {
      c.workload = value;
    } else if (flag == "--trace-out") {
      c.trace_out = value;
    } else if (!numeric) {
      usage_error("bad value for " + flag + ": " + value);
    } else if (flag == "--seed") {
      c.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      c.seconds = number;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  return c;
}

int run(int argc, char** argv) {
  refuse_eca_environment();
  Config c = parse(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (c.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) usage_error("unknown workload '" + c.workload + "'");
  c.users = w->users;
  c.slots = w->slots;
  c.instances = w->instances;
  c.threads = w->threads;
  c.quality_units = w->quality_units;
  const auto k = static_cast<std::size_t>(c.quality_units);
  constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

  {
    // One untimed unit first, so that lazy set-up, caches and the
    // allocator's pools are warm before anything is timed.
    DecideLog warm_up;
    w->run_unit(c, 0, warm_up);
  }
  DecideLog log;
  const bool traced = !c.trace_out.empty();
  const obs::MetricsSnapshot timed_before =
      obs::MetricsRegistry::global().snapshot();
  const Phase timed =
      run_phase(c, w->run_unit, log, traced ? c.seconds / 2 : c.seconds, k,
                kUnbounded);
  const std::string timed_counters = counter_deltas(
      timed_before, obs::MetricsRegistry::global().snapshot());
  const std::vector<double> approx_decides = log.decides(Family::kApprox);
  const std::vector<double> baseline_decides = log.decides(Family::kBaseline);

  std::string trace_json = "null";
  bool traced_quality_matches = true;
  if (traced) {
    obs::TraceOptions options;
    options.capacity = std::size_t{1} << 20;
    obs::TraceSession* session = obs::install_global_trace(options);
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::global().snapshot();
    const Phase phase = run_phase(c, w->run_unit, log, 0.0,
                                  timed.units.size(), timed.units.size());
    const obs::MetricsSnapshot after =
        obs::MetricsRegistry::global().snapshot();
    const std::string counters = counter_deltas(before, after);
    for (std::size_t i = 0; i < phase.units.size(); ++i) {
      traced_quality_matches &= same_quality(phase.units[i], timed.units[i]);
    }
    std::ofstream out(c.trace_out);
    session->flush_to(out);
    out.close();
    if (!out) usage_error("cannot write trace file " + c.trace_out);
    trace_json = "{\"file\":" + quoted(c.trace_out) +
                 ",\"recorded\":" + std::to_string(session->recorded()) +
                 ",\"dropped\":" + std::to_string(session->dropped()) +
                 ",\"start_us\":" + num(phase.start_ns * 1e-3) +
                 ",\"end_us\":" + num(phase.end_ns * 1e-3) +
                 ",\"main_tid\":" +
                 std::to_string(obs::internal::thread_ordinal()) +
                 ",\"counters\":" + counters +
                 ",\"units\":" + units_json(phase) + "}";
    obs::drop_global_trace();
  }

  // Resolved worker counts of every parallel path the workloads touch
  // (requests as passed above; unset ECA_* knobs fall back to defaults).
  const bool fig2 = c.workload == "fig2-taxi";
  const bool agg = c.workload == "agg-1e5";
  const std::string threads =
      "{\"requested\":" + std::to_string(c.threads) +
      ",\"runner\":" +
      std::to_string(fig2 ? ThreadPool::resolve_threads(c.threads) : 1) +
      ",\"offline_lp\":" + std::to_string(ThreadPool::resolve_lp_threads(1)) +
      ",\"baseline_slots\":" +
      std::to_string(ThreadPool::resolve_baseline_threads(1)) +
      ",\"p2_slot\":" +
      std::to_string(ThreadPool::resolve_slot_threads(agg ? c.threads : 0)) +
      ",\"hardware_concurrency\":" +
      std::to_string(std::thread::hardware_concurrency()) + "}";

  std::ostringstream json;
  json << "{\"workload\":" << quoted(c.workload) << ",\"seed\":" << c.seed
       << ",\"build_type\":" << quoted(ECA_BUILD_TYPE)
       << ",\"threads\":" << threads << ",\"scale\":{\"users\":" << c.users
       << ",\"slots\":" << c.slots << ",\"instances\":" << c.instances
       << "},\"units\":" << units_json(timed)
       << ",\"quality\":" << quality_json(timed, k)
       << ",\"traced_quality_matches\":"
       << (traced_quality_matches ? "true" : "false")
       << ",\"decide_s\":{\"approx\":" << array(approx_decides)
       << ",\"baseline\":" << array(baseline_decides) << "}"
       << ",\"counters\":" << timed_counters << ",\"trace\":" << trace_json
       << ",\"peak_rss_mb\":" << num(peak_rss_mb()) << "}\n";
  std::fputs(json.str().c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace eca::perfbench

int main(int argc, char** argv) { return eca::perfbench::run(argc, argv); }
