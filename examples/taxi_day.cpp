// A realistic scenario: taxis in central Rome over one simulated hour.
//
//   $ ./examples/taxi_day [users] [slots]
//
// Mirrors the paper's real-world evaluation setting: users in taxis are
// served from 15 metro-station edge clouds; capacity tracks attachment
// frequency; operation prices fluctuate each minute. Runs the full
// algorithm roster and prints a Figure-2-style comparison for one hour.
#include <cstdio>

#include "common/env.h"
#include "sim/runner.h"
#include "sim/scenario.h"

int main(int argc, char** argv) {
  using namespace eca;

  sim::ScenarioOptions options;
  options.num_users =
      argc > 1 ? static_cast<std::size_t>(parse_int("users", argv[1], 1)) : 25;
  options.num_slots =
      argc > 2 ? static_cast<std::size_t>(parse_int("slots", argv[2], 1)) : 30;
  options.seed = 2026;

  // Peek at the mobility the instance is built from.
  const model::Instance instance = sim::make_rome_taxi_instance(options, 0);
  std::size_t handovers = 0;
  for (std::size_t t = 1; t < instance.num_slots; ++t) {
    for (std::size_t j = 0; j < instance.num_users; ++j) {
      if (instance.attachment[t][j] != instance.attachment[t - 1][j]) {
        ++handovers;
      }
    }
  }
  std::printf("taxi hour: %zu users, %zu one-minute slots, %zu handovers\n",
              instance.num_users, instance.num_slots, handovers);
  std::printf("total demand %.0f, total capacity %.1f (80%% utilization)\n\n",
              instance.total_demand(),
              linalg::sum(instance.capacities()));

  sim::ExperimentOptions experiment;
  experiment.repetitions = 1;
  const sim::ExperimentResult result = sim::run_experiment(
      [&](int) { return sim::make_rome_taxi_instance(options, 0); },
      sim::paper_algorithms(/*include_static_once=*/true), experiment);

  std::printf("%-14s %10s %10s %7s\n", "algorithm", "cost", "vs offline",
              "wall s");
  for (const auto& summary : result.algorithms) {
    std::printf("%-14s %10.1f %10.3f %7.2f\n", summary.name.c_str(),
                summary.absolute_cost.mean(), summary.ratio.mean(),
                summary.wall_seconds.mean());
  }
  std::printf("%-14s %10.1f %10.3f %7s\n", "offline-opt",
              result.offline_cost.mean(), 1.0, "-");
  std::printf(
      "\nthe holistic algorithms (online-greedy, online-approx) track the\n"
      "offline optimum; online-approx should be the closest.\n");
  return 0;
}
