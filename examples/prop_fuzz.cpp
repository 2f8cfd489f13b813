// Property-harness driver: generates N seeded scenarios, runs the
// differential oracle on each, shrinks failures to minimal replay files and
// prints each failure's seed and replay path. This is the binary behind
// `scripts/check.sh`'s prop run and `scripts/check.sh fuzz`, the
// extended-seed-range soak; its exit code is the gate.
//
//   prop_fuzz [--seed S] [--scenarios N] [--time-budget SEC]
//             [--replay FILE] [--replay-dir DIR]
//             [--no-shrink] [--no-offline] [--fault PLAN]
//
// Environment: ECA_PROP_SEED / ECA_PROP_SCENARIOS override the defaults
// (flags win over environment); both fail fast on invalid values.
// Exit code: 0 = all scenarios verified, 1 = at least one oracle violation
// or no scenario run (a time budget spent before the first), 2 =
// usage/configuration error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/harness.h"
#include "common/env.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed S] [--scenarios N] [--time-budget SEC]\n"
      "          [--replay FILE] [--replay-dir DIR]\n"
      "          [--no-shrink] [--no-offline] [--fault PLAN]\n",
      argv0);
  std::exit(2);
}

const char* arg_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage(argv[0]);
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  using eca::check::HarnessOptions;
  using eca::check::HarnessSummary;

  HarnessOptions options;
  options.seed = eca::check::prop_seed_from_env(1);
  options.num_scenarios = eca::check::prop_scenarios_from_env(50);
  std::string replay_file;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--seed") == 0) {
      options.seed = static_cast<std::uint64_t>(
          eca::parse_int("--seed", arg_value(argc, argv, i), 0));
    } else if (std::strcmp(arg, "--scenarios") == 0) {
      options.num_scenarios = static_cast<int>(
          eca::parse_int("--scenarios", arg_value(argc, argv, i), 1));
    } else if (std::strcmp(arg, "--time-budget") == 0) {
      options.time_budget_seconds =
          eca::parse_double("--time-budget", arg_value(argc, argv, i));
    } else if (std::strcmp(arg, "--replay") == 0) {
      replay_file = arg_value(argc, argv, i);
    } else if (std::strcmp(arg, "--replay-dir") == 0) {
      options.replay_dir = arg_value(argc, argv, i);
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      options.shrink_failures = false;
    } else if (std::strcmp(arg, "--no-offline") == 0) {
      options.oracle.run_offline = false;
    } else if (std::strcmp(arg, "--fault") == 0) {
      options.oracle.fault_plan = arg_value(argc, argv, i);
    } else {
      usage(argv[0]);
    }
  }

  // Replay mode: one saved scenario through the oracle, verbose verdict.
  if (!replay_file.empty()) {
    eca::check::Scenario scenario;
    std::string error;
    if (!eca::check::load_replay(replay_file, scenario, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    const eca::check::OracleReport report =
        eca::check::run_oracle(scenario, options.oracle);
    std::printf("replay %s: %s\n", replay_file.c_str(),
                report.ok() ? "VERIFIED" : "FAILED");
    for (const auto& violation : report.violations) {
      std::printf("  violation: %s\n", violation.c_str());
    }
    for (const auto& leg : report.legs) {
      std::printf("  %-22s cost=%.10g violation=%.3g\n", leg.name.c_str(),
                  leg.cost, leg.max_violation);
    }
    if (report.offline_ran) {
      std::printf("  offline optimum %.10g (online/offline ratio %.4f)\n",
                  report.offline_cost,
                  report.offline_cost > 0.0
                      ? report.online_cost / report.offline_cost
                      : 0.0);
    }
    return report.ok() ? 0 : 1;
  }

  const HarnessSummary summary = eca::check::run_harness(options);
  std::printf(
      "prop harness: %d scenario(s), %d failure(s), offline legs on %d, "
      "worst KKT %.3g, worst infeasibility %.3g, %.2fs%s\n",
      summary.scenarios_run, summary.failures, summary.offline_legs_run,
      summary.worst_kkt, summary.worst_infeasibility, summary.wall_seconds,
      summary.budget_exhausted ? " (time budget exhausted)" : "");
  for (const auto& failure : summary.failure_details) {
    std::printf("  seed %llu: %s\n",
                static_cast<unsigned long long>(failure.scenario.seed),
                failure.first_violation.c_str());
    if (!failure.replay_path.empty()) {
      std::printf("    replay written to %s\n", failure.replay_path.c_str());
    }
  }
  if (summary.scenarios_run == 0) {
    std::fprintf(stderr, "error: no scenario ran, so nothing was verified\n");
  }
  return summary.ok() ? 0 : 1;
}
