// Figure 3 (Section V-C): the same real-world setting as Figure 2 under
// uniformly and normally distributed user workloads. The paper's finding:
// online-approx stays near-optimal (~1.1) under every distribution and
// improves on online-greedy by up to 70%.
//
// One labelled experiment per distribution; scripts/report_run.py renders
// the table from the ECA_EVENTS record, with the excess-cost reduction of
// online-approx over online-greedy as a column.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace eca;
  using namespace eca::bench;

  const BenchScale scale = read_scale();
  print_header("Figure 3", "uniform and normal workload distributions",
               scale);

  for (const workload::Distribution dist :
       {workload::Distribution::kUniform, workload::Distribution::kNormal,
        workload::Distribution::kPower}) {
    sim::run_experiment(
        [&](int rep) {
          sim::ScenarioOptions options = rep_scenario(scale, rep);
          options.workload.distribution = dist;
          return sim::make_rome_taxi_instance(options, rep % 6);
        },
        sim::paper_algorithms(),
        labelled(workload::to_string(dist), scale.repetitions));
  }
  std::printf(
      "\nexpected shape: online-approx near-optimal under all three "
      "distributions,\nslightly better under uniform workloads (paper, "
      "Section V-C).\n");
  return 0;
}
