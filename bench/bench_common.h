// Shared plumbing for the figure-reproduction binaries.
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

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "common/env.h"
#include "obs/events.h"
#include "sim/runner.h"
#include "sim/scenario.h"

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

}  // namespace eca::bench
