// The property-harness driver (DESIGN.md §13): generate N seeded scenarios,
// run each through the differential oracle, shrink every failure to a
// minimal witness and summarize the run. examples/prop_fuzz exits 1 unless
// the summary is ok().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "check/scenario.h"
#include "check/shrink.h"

namespace eca::check {

struct HarnessOptions {
  std::uint64_t seed = 1;     // master seed; scenario k uses split stream k
  int num_scenarios = 50;
  double time_budget_seconds = 0.0;  // 0 = no budget; else stop when exceeded
  bool shrink_failures = true;
  int max_failures = 5;  // stop generating after this many failures
  // Directory for one replay file per (shrunk) failure,
  // "<dir>/prop_failure_<k>.replay"; empty = don't write files.
  std::string replay_dir;
  OracleOptions oracle;
};

struct HarnessFailure {
  Scenario scenario;             // as generated
  Scenario shrunk;               // minimal witness (== scenario if not shrunk)
  std::string first_violation;   // of the original failing run
  std::string replay_path;       // written file ("" when replay_dir unset)
};

struct HarnessSummary {
  int scenarios_run = 0;
  int failures = 0;
  double wall_seconds = 0.0;
  double worst_kkt = 0.0;
  double worst_infeasibility = 0.0;
  int offline_legs_run = 0;  // scenarios whose offline legs executed
  bool budget_exhausted = false;
  std::vector<HarnessFailure> failure_details;
  // A run that verified no scenario (an exhausted time budget before the
  // first one) proves nothing, so it is not ok either.
  [[nodiscard]] bool ok() const { return scenarios_run > 0 && failures == 0; }
};

HarnessSummary run_harness(const HarnessOptions& options);

// ECA_PROP_SEED / ECA_PROP_SCENARIOS with the repo-wide fail-fast contract:
// unset returns the fallback, set-but-invalid exits(2). Exposed for death
// tests.
std::uint64_t prop_seed_from_env(std::uint64_t fallback);
int prop_scenarios_from_env(int fallback);

}  // namespace eca::check
