// Extensions beyond the paper (see DESIGN.md §6 and algo/extensions.h):
//  * prediction value: lookahead-k oracles versus the prediction-free
//    online-approx — how much would k slots of perfect foresight buy?
//  * lazy hysteresis: the practical "don't move unless it pays" policy.
//  * self-certification: the dual certificate of Section IV computed during
//    the online run (paper-pure mode), versus the measured ratio.
// scripts/report_run.py renders the ratios from the ECA_EVENTS record; the
// self-certification lines print here.
#include <cstdio>
#include <memory>

#include "algo/baselines.h"
#include "algo/extensions.h"
#include "algo/offline.h"
#include "algo/online_approx.h"
#include "bench_common.h"

int main() {
  using namespace eca;
  using namespace eca::bench;

  BenchScale scale = read_scale();
  // Lookahead solves a windowed LP every slot; keep the default modest.
  scale.users = static_cast<std::size_t>(env_int("ECA_USERS", 15, 1));
  scale.slots = static_cast<std::size_t>(env_int("ECA_SLOTS", 30, 1));
  print_header("Extensions", "lookahead oracles, hysteresis, certification",
               scale);

  std::vector<sim::NamedFactory> factories = {
      {"online-greedy",
       [] { return std::make_unique<algo::OnlineGreedy>(); }},
      {"lazy-greedy", [] { return std::make_unique<algo::LazyGreedy>(); }},
      {"online-approx",
       [] { return std::make_unique<algo::OnlineApprox>(); }},
  };
  for (std::size_t window : {2u, 4u}) {
    factories.push_back({"lookahead-" + std::to_string(window), [window] {
                           algo::LookaheadOptions options;
                           options.window = window;
                           return std::make_unique<algo::LookaheadOpt>(
                               options);
                         }});
  }

  sim::run_experiment(
      [&](int rep) {
        return sim::make_rome_taxi_instance(rep_scenario(scale, rep),
                                            rep % 6);
      },
      factories, labelled("extensions", scale.repetitions));

  // Self-certification demo: one paper-pure run certifying its own ratio.
  {
    sim::ScenarioOptions options = scenario_from_scale(scale);
    const model::Instance instance = sim::make_rome_taxi_instance(options, 0);
    algo::OnlineApproxOptions approx_options;
    approx_options.enforce_capacity = false;  // Lemma 2 requires pure P2
    algo::OnlineApprox approx(approx_options);
    const sim::SimulationResult run = sim::Simulator::run(instance, approx);
    const algo::OfflineResult offline = algo::solve_offline(instance);
    const double opt =
        sim::Simulator::score(instance, "offline", offline.allocations)
            .weighted_total;
    std::printf(
        "\nself-certification (paper-pure run): measured ratio %.3f,\n"
        "certified ratio %.3f (dual lower bound %.1f vs offline %.1f),\n"
        "Theorem 2 worst-case bound %.1f\n",
        run.weighted_total / opt,
        approx.certificate().certified_ratio(run.weighted_total, instance),
        approx.certificate().opt_lower_bound(instance), opt,
        model::competitive_ratio_bound(instance, 1.0, 1.0));
  }
  std::printf(
      "\nexpected: lookahead-k approaches the offline optimum as k grows;\n"
      "online-approx (no prediction at all) should land between greedy and\n"
      "the small-window oracles; the certified ratio upper-bounds the\n"
      "measured one at a fraction of Theorem 2's worst-case bound.\n");
  return 0;
}
