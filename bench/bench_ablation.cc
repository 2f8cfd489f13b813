// Ablation (ours, see DESIGN.md §6): which parts of the regularized
// subproblem P2 actually matter?
//  * full            — both regularizers (the paper's algorithm)
//  * no-recon        — drop the aggregate reconfiguration regularizer
//  * no-migration    — drop the per-user migration regularizer
//  * none            — drop both (degenerates to per-slot static optimum)
//  * paper-pure      — full, but without the explicit capacity rows our
//                      implementation adds (Theorem 1 discussion).
// scripts/report_run.py renders the ratios from the ECA_EVENTS record; the
// worst constraint violation of each variant prints here.
#include <cstdio>
#include <memory>

#include "algo/online_approx.h"
#include "bench_common.h"

int main() {
  using namespace eca;
  using namespace eca::bench;

  const BenchScale scale = read_scale();
  print_header("Ablation", "P2 regularizer components", scale);

  struct Variant {
    const char* name;
    bool recon;
    bool migration;
    bool enforce_capacity;
  };
  const Variant variants[] = {
      {"full", true, true, true},
      {"no-recon", false, true, true},
      {"no-migration", true, false, true},
      {"none", false, false, true},
      {"paper-pure", true, true, false},
  };

  std::vector<sim::NamedFactory> factories;
  for (const Variant& v : variants) {
    factories.push_back({v.name, [v] {
                           algo::OnlineApproxOptions options;
                           options.use_reconfiguration_regularizer = v.recon;
                           options.use_migration_regularizer = v.migration;
                           options.enforce_capacity = v.enforce_capacity;
                           return std::make_unique<algo::OnlineApprox>(
                               options);
                         }});
  }

  const sim::ExperimentResult result = sim::run_experiment(
      [&](int rep) {
        return sim::make_rome_taxi_instance(rep_scenario(scale, rep),
                                            rep % 6);
      },
      factories, labelled("ablation", scale.repetitions));
  for (const auto& summary : result.algorithms) {
    std::printf("%s: max constraint violation %.6f\n", summary.name.c_str(),
                summary.worst_violation);
  }
  std::printf(
      "\nexpected: 'full' best; dropping either regularizer hurts; 'none'\n"
      "behaves like stat-opt; 'paper-pure' may overshoot capacity slightly\n"
      "(nonzero violation above) — the reason enforce_capacity defaults "
      "on.\n");
  return 0;
}
