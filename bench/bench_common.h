// Shared plumbing for the figure-reproduction binaries, plus the BENCH
// provenance helpers (meta block, events-overhead leg) that bench_baselines
// writes into BENCH_baselines.json and scripts/perf_guard.py gates.
//
// Every binary reads its scale from ECA_* environment variables so the same
// build can run a CI-sized experiment or something closer to paper scale:
//   ECA_USERS (default 30)   users J
//   ECA_SLOTS (default 48)   slots T (paper: 60 one-minute slots)
//   ECA_REPS  (default 2)    repetitions per configuration
//   ECA_SEED  (default 1)    base seed
//
// The figure drivers label each run_experiment call (an hour, a workload
// distribution, a mu, a user count) and print no table of their own: the
// figure table is a view of the ECA_EVENTS record, rendered by
//   scripts/report_run.py --events <path>
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "algo/online_approx.h"
#include "check/harness.h"
#include "common/env.h"
#include "obs/events.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

// Build provenance, stamped by bench/CMakeLists.txt at configure time.
#ifndef ECA_GIT_SHA
#define ECA_GIT_SHA "unknown"
#endif
#ifndef ECA_BUILD_TYPE
#define ECA_BUILD_TYPE "unknown"
#endif

namespace eca::bench {

struct BenchScale {
  std::size_t users;
  std::size_t slots;
  int repetitions;
  std::uint64_t seed;
};

inline BenchScale read_scale() {
  // Thread knobs are validated up front, where a typo surfaces at startup
  // rather than mid-sweep (or never, for a pool the run does not reach).
  for (const char* knob : {"ECA_THREADS", "ECA_SLOT_THREADS", "ECA_LP_THREADS",
                           "ECA_BASELINE_THREADS", "ECA_SLOT_MIN_CHUNK"}) {
    env_int(knob, 1, 1);
  }
  BenchScale scale;
  scale.users = static_cast<std::size_t>(env_int("ECA_USERS", 30, 1));
  scale.slots = static_cast<std::size_t>(env_int("ECA_SLOTS", 48, 1));
  scale.repetitions = static_cast<int>(env_int("ECA_REPS", 2, 1));
  scale.seed = static_cast<std::uint64_t>(env_int("ECA_SEED", 1, 0));
  return scale;
}

// Price-calibration knobs (the paper fixes only *relative* price ratios, so
// the dynamic/static balance is a free parameter of the reproduction):
//   ECA_BW_SCALE    bandwidth price scale (default 0.4)
//   ECA_RECON_MEAN  mean reconfiguration price (default 1.0)
inline sim::ScenarioOptions scenario_from_scale(const BenchScale& scale) {
  sim::ScenarioOptions options;
  options.num_users = scale.users;
  options.num_slots = scale.slots;
  options.seed = scale.seed;
  options.bandwidth_price.scale =
      env_double("ECA_BW_SCALE", options.bandwidth_price.scale);
  options.reconfiguration_price.mean =
      env_double("ECA_RECON_MEAN", options.reconfiguration_price.mean);
  return options;
}

// The scenario of repetition `rep`: repetitions are seeded 1000 apart.
inline sim::ScenarioOptions rep_scenario(const BenchScale& scale, int rep) {
  sim::ScenarioOptions options = scenario_from_scale(scale);
  options.seed = scale.seed + 1000 * static_cast<std::uint64_t>(rep);
  return options;
}

// One labelled experiment of `repetitions` repetitions.
inline sim::ExperimentOptions labelled(std::string label, int repetitions) {
  sim::ExperimentOptions options;
  options.label = std::move(label);
  options.repetitions = repetitions;
  return options;
}

// The figure drivers' header; it warns up front when no record is kept,
// because the figure table is rendered from the record alone.
inline void print_header(const char* figure, const char* what,
                         const BenchScale& scale) {
  std::printf("=== %s: %s ===\n", figure, what);
  std::printf("scale: %zu users, %zu slots, %d repetitions, seed %llu\n",
              scale.users, scale.slots, scale.repetitions,
              static_cast<unsigned long long>(scale.seed));
  if (obs::global_events() == nullptr) {
    std::fprintf(stderr,
                 "note: ECA_EVENTS is unset, so this run records no figure "
                 "table; set ECA_EVENTS=<path> and render it with "
                 "scripts/report_run.py --events <path>\n");
  }
}

// Verification-gate provenance for the meta block: a tiny prop-harness
// smoke (a handful of seeded scenarios through the full differential
// oracle of DESIGN.md §13, no shrinking) run right before the BENCH JSON
// is written. Recording its timing and outcome in the BENCH file ties
// a perf number to proof that the correctness gates actually ran on the
// same binary at commit time. ECA_BENCH_PROP_SMOKE=0 skips it (recorded
// as "skipped": perf_guard.py treats a recorded skip as informational,
// only an ok=false block fails the gate).
struct MetaChecks {
  bool ran = false;
  bool ok = false;
  int scenarios = 0;
  int failures = 0;
  double wall_seconds = 0.0;
};

inline MetaChecks run_meta_checks() {
  MetaChecks checks;
  if (!env_bool("ECA_BENCH_PROP_SMOKE", true)) return checks;
  check::HarnessOptions options;
  options.seed = 1;
  options.num_scenarios = 5;
  options.shrink_failures = false;  // provenance, not diagnosis: stay cheap
  const check::HarnessSummary summary = check::run_harness(options);
  checks.ran = true;
  checks.ok = summary.ok();
  checks.scenarios = summary.scenarios_run;
  checks.failures = summary.failures;
  checks.wall_seconds = summary.wall_seconds;
  std::printf("meta.checks: prop smoke %d scenarios, %d failures, %.3fs\n",
              checks.scenarios, checks.failures, checks.wall_seconds);
  return checks;
}

// Provenance meta block of a BENCH file: git_sha and
// build_type are compile-time stamps, the UTC timestamp is taken at run
// time, and `checks` records the verification gates run against this very
// binary — together they make a BENCH trajectory joinable across commits
// AND auditable (a perf point whose prop smoke failed is not a perf
// point). Writes `"meta": {...},` (trailing comma: meant to lead an
// object body).
inline void write_meta_json(FILE* out) {
  char stamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
  }
  const MetaChecks checks = run_meta_checks();
  std::fprintf(out,
               "  \"meta\": {\"git_sha\": \"%s\", \"build_type\": \"%s\", "
               "\"timestamp_utc\": \"%s\",\n",
               ECA_GIT_SHA, ECA_BUILD_TYPE, stamp);
  if (checks.ran) {
    std::fprintf(out,
                 "    \"checks\": {\"prop_smoke\": {\"ok\": %s, "
                 "\"scenarios\": %d, \"failures\": %d, "
                 "\"wall_seconds\": %.6f}}},\n",
                 checks.ok ? "true" : "false", checks.scenarios,
                 checks.failures, checks.wall_seconds);
  } else {
    std::fprintf(out,
                 "    \"checks\": {\"prop_smoke\": {\"skipped\": true}}},\n");
  }
}

struct EventsOverhead {
  double seconds_off = 0.0;  // best-of-N wall time, event streaming off
  double seconds_on = 0.0;   // best-of-N wall time, buffer-only event log
  double median_seconds_off = 0.0;
  // Each round's events-on leg over its adjacent events-off leg.
  std::vector<double> ratios;
};

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

// Measures the wall-time overhead of event recording on `workload` (a
// callable running one representative simulation): `rounds` rounds, each
// one leg with the global log dropped and one with it installed
// buffer-only (large capacity, no file I/O — isolating record() cost from
// serialization). The legs alternate, and so does which of them opens a
// round, so drift on a shared host reaches both. Each round's on/off
// ratio compares two adjacent legs; perf_guard.py gates their median.
// Replaces any env-configured global event log; the benches own their
// process, so nothing of value is lost.
template <typename Fn>
EventsOverhead measure_events_overhead(Fn&& workload, int rounds = 21) {
  const auto timed = [&](bool with_events) {
    if (with_events) {
      obs::EventLogOptions options;  // path stays empty: buffer-only
      options.capacity = std::size_t{1} << 20;
      obs::install_global_events(options);
    } else {
      obs::drop_global_events();
    }
    const auto start = std::chrono::steady_clock::now();
    workload();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  EventsOverhead result;
  std::vector<double> off_legs;
  for (int r = 0; r < rounds; ++r) {
    double leg[2] = {0.0, 0.0};  // [off, on]
    for (const bool with_events : {r % 2 == 1, r % 2 == 0}) {
      const double s = timed(with_events);
      double& best = with_events ? result.seconds_on : result.seconds_off;
      if (r == 0 || s < best) best = s;
      leg[with_events ? 1 : 0] = s;
    }
    off_legs.push_back(leg[0]);
    result.ratios.push_back(leg[1] / leg[0]);
  }
  obs::drop_global_events();
  result.median_seconds_off = median(std::move(off_legs));
  return result;
}

// Writes `"events_overhead": {...},` (trailing comma, like write_meta_json).
inline void write_events_overhead_json(FILE* out, const EventsOverhead& o) {
  std::fprintf(out,
               "  \"events_overhead\": {\"seconds_off\": %.6f, "
               "\"seconds_on\": %.6f, \"median_seconds_off\": %.6f, "
               "\"ratios\": [",
               o.seconds_off, o.seconds_on, o.median_seconds_off);
  for (std::size_t r = 0; r < o.ratios.size(); ++r) {
    std::fprintf(out, "%s%.4f", r > 0 ? ", " : "", o.ratios[r]);
  }
  std::fprintf(out, "]},\n");
}

// Default events-overhead workload of the BENCH file: one online-approx
// simulation over a 48-user, 48-slot taxi instance, recorded the way every
// caller records a finished run (obs::emit_run: run lifecycle, per-slot
// cost splits and solve records).
inline EventsOverhead measure_default_events_overhead(
    const BenchScale& scale) {
  // A fixed shape, independent of the scale knobs: perf_guard.py gates the
  // ratios only when the median events-off leg takes at least 10 ms, and
  // 48 × 48 runs in about 31 ms on a 4-core Xeon host (12 × 16 took 3–6 ms).
  sim::ScenarioOptions options = scenario_from_scale(scale);
  options.num_users = 48;
  options.num_slots = 48;
  const model::Instance instance = sim::make_rome_taxi_instance(options, 0);
  const EventsOverhead overhead =
      measure_events_overhead([&instance] {
        algo::OnlineApprox algorithm;
        const sim::SimulationResult run =
            sim::Simulator::run(instance, algorithm);
        obs::emit_run(obs::global_events(), run.telemetry);
      });
  std::printf(
      "events overhead: median %+.2f%% over %zu rounds (median off leg "
      "%.4fs; best %.4fs off -> %.4fs on)\n",
      100.0 * (median(overhead.ratios) - 1.0), overhead.ratios.size(),
      overhead.median_seconds_off, overhead.seconds_off, overhead.seconds_on);
  return overhead;
}

}  // namespace eca::bench
