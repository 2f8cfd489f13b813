// Figure 4 (Section V-C): sensitivity of online-approx to
//  (a) the regularization parameter ε = ε1 = ε2, swept 1e-3..1e3, and
//  (b) the dynamic/static weight ratio μ, swept 1e-3..1e3.
// The paper observes: the empirical ratio dips slightly, then rises to a
// stable level as ε grows; for small μ the algorithm is near-optimal, for
// large μ it remains stable and reasonable. We also print Theorem 2's
// theoretical bound r = 1 + γ|I| next to each ε.
//
// (a) is one experiment whose roster is the seven ε variants of
// online-approx (the instance, and so the offline optimum, is fixed per
// repetition); (b) is one labelled experiment per μ, because the weights
// enter the objective and the offline optimum is re-solved per μ.
// scripts/report_run.py renders both tables from the ECA_EVENTS record.
#include <cstdio>
#include <memory>
#include <string>

#include "algo/baselines.h"
#include "algo/online_approx.h"
#include "bench_common.h"
#include "model/costs.h"

int main() {
  using namespace eca;
  using namespace eca::bench;

  const BenchScale scale = read_scale();
  print_header("Figure 4", "impact of epsilon and mu", scale);

  const double sweep[] = {1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3};
  const auto label = [](const char* name, double value) {
    char text[32];
    std::snprintf(text, sizeof(text), "%s=%g", name, value);
    return std::string(text);
  };

  // (a) epsilon sweep.
  std::vector<sim::NamedFactory> variants;
  for (const double eps : sweep) {
    variants.push_back({label("eps", eps), [eps] {
                          algo::OnlineApproxOptions options;
                          options.eps1 = eps;
                          options.eps2 = eps;
                          return std::make_unique<algo::OnlineApprox>(options);
                        }});
  }
  sim::run_experiment(
      [&](int rep) {
        return sim::make_rome_taxi_instance(rep_scenario(scale, rep),
                                            rep % 6);
      },
      variants, labelled("(a) epsilon", scale.repetitions));
  // The bound depends only on the capacities: report it for hour 0.
  const model::Instance bound_instance =
      sim::make_rome_taxi_instance(scenario_from_scale(scale), 0);
  for (const double eps : sweep) {
    std::printf("theorem-2 bound r at %s: %.1f\n", label("eps", eps).c_str(),
                model::competitive_ratio_bound(bound_instance, eps, eps));
  }

  // (b) mu sweep.
  for (const double mu : sweep) {
    sim::run_experiment(
        [&](int rep) {
          sim::ScenarioOptions options = rep_scenario(scale, rep);
          options.mu = mu;
          return sim::make_rome_taxi_instance(options, rep % 6);
        },
        {{"online-greedy",
          [] { return std::make_unique<algo::OnlineGreedy>(); }},
         {"online-approx",
          [] { return std::make_unique<algo::OnlineApprox>(); }}},
        labelled(label("mu", mu), std::max(1, scale.repetitions - 1)));
  }
  std::printf(
      "\nexpected shape: (a) slight dip then stable level as epsilon grows;\n"
      "(b) near-optimal for small mu, stable and reasonable for large mu.\n");
  return 0;
}
