#include "check/harness.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/log.h"

namespace eca::check {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

HarnessSummary run_harness(const HarnessOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  HarnessSummary summary;
  Rng master(options.seed);
  for (int k = 0; k < options.num_scenarios; ++k) {
    if (options.time_budget_seconds > 0.0 &&
        seconds_since(start) > options.time_budget_seconds) {
      summary.budget_exhausted = true;
      break;
    }
    if (summary.failures >= options.max_failures) break;
    // Stream-split per scenario: scenario k is a function of (seed, k)
    // alone, so any failing index replays without re-running 0..k-1.
    Rng scenario_rng = master.split(static_cast<std::uint64_t>(k));
    const Scenario scenario = generate_scenario(scenario_rng);
    const OracleReport report = run_oracle(scenario, options.oracle);
    ++summary.scenarios_run;
    summary.worst_kkt = std::max(summary.worst_kkt, report.worst_kkt);
    summary.worst_infeasibility =
        std::max(summary.worst_infeasibility, report.worst_infeasibility);
    if (report.offline_ran) ++summary.offline_legs_run;
    if (report.ok()) continue;

    ++summary.failures;
    HarnessFailure failure;
    failure.scenario = scenario;
    failure.first_violation = report.first_violation();
    ECA_LOG_WARN("prop harness: scenario %d (seed %llu) failed: %s", k,
                 static_cast<unsigned long long>(scenario.seed),
                 failure.first_violation.c_str());
    failure.shrunk = scenario;
    if (options.shrink_failures) {
      const ShrinkResult shrunk = shrink(scenario, options.oracle);
      failure.shrunk = shrunk.scenario;
      ECA_LOG_WARN(
          "prop harness: shrank to I=%zu J=%zu T=%zu in %d reductions "
          "(%d oracle runs)",
          shrunk.scenario.num_clouds, shrunk.scenario.num_users,
          shrunk.scenario.num_slots, shrunk.accepted, shrunk.evaluations);
    }
    if (!options.replay_dir.empty()) {
      failure.replay_path = options.replay_dir + "/prop_failure_" +
                            std::to_string(summary.failures - 1) + ".replay";
      if (!save_replay(failure.replay_path, failure.shrunk)) {
        ECA_LOG_ERROR("prop harness: cannot write replay file %s",
                      failure.replay_path.c_str());
        failure.replay_path.clear();
      }
    }
    summary.failure_details.push_back(std::move(failure));
  }
  summary.wall_seconds = seconds_since(start);
  return summary;
}

std::uint64_t prop_seed_from_env(std::uint64_t fallback) {
  const char* value = std::getenv("ECA_PROP_SEED");
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0') {
    std::fprintf(stderr,
                 "error: ECA_PROP_SEED='%s' is invalid (must be an unsigned "
                 "integer; unset it for the default)\n",
                 value);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(parsed);
}

int prop_scenarios_from_env(int fallback) {
  const char* value = std::getenv("ECA_PROP_SCENARIOS");
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0' || parsed < 1 ||
      parsed > 1000000) {
    std::fprintf(stderr,
                 "error: ECA_PROP_SCENARIOS='%s' is invalid (must be an "
                 "integer in [1, 1000000]; unset it for the default)\n",
                 value);
    std::exit(2);
  }
  return static_cast<int>(parsed);
}

}  // namespace eca::check
