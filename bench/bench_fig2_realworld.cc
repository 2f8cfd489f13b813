// Figure 2 (Section V-B): empirical competitive ratios of the atomistic
// group (perf-opt, oper-opt, stat-opt) and the holistic group
// (online-greedy, online-approx) on the real-world setting — 15 Rome metro
// stations, taxi mobility, power-law workloads — across six hourly test
// cases (3pm..8pm). All values are normalized by the offline optimum.
//
// One labelled experiment per hour; scripts/report_run.py renders the
// table from the ECA_EVENTS record, with the Section-I headline (the total
// cost of static-once over online-approx, "up to 4x") as a column.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace eca;
  using namespace eca::bench;

  const BenchScale scale = read_scale();
  print_header("Figure 2", "real-world (taxi) mobility, power workload",
               scale);

  const char* const hours[] = {"3pm", "4pm", "5pm", "6pm", "7pm", "8pm"};
  const auto roster = sim::paper_algorithms(/*include_static_once=*/true);
  for (int hour = 0; hour < 6; ++hour) {
    sim::run_experiment(
        [&](int rep) {
          sim::ScenarioOptions options = rep_scenario(scale, rep);
          options.workload.distribution = workload::Distribution::kPower;
          return sim::make_rome_taxi_instance(options, hour);
        },
        roster, labelled(hours[hour], scale.repetitions));
  }
  std::printf(
      "\nexpected shape: online-approx near 1.1 while the atomistic group is "
      "clearly worse;\nstatic-once costs a multiple of online-approx (paper: "
      "up to 4x).\n");
  return 0;
}
