// Figure 1 (Section II-E): the two didactic examples showing that the
// natural online greedy is (a) too aggressive and (b) too conservative.
// Reproduces the paper's exact cost arithmetic and contrasts it with the
// LP offline optimum and the paper's online algorithm.
#include <cstdio>

#include "algo/baselines.h"
#include "algo/offline.h"
#include "algo/online_approx.h"
#include "sim/paper_examples.h"
#include "sim/simulator.h"

namespace {

using namespace eca;

void run_example(const char* label, const model::Instance& instance,
                 double paper_greedy, double paper_optimal) {
  const double provisioning = sim::figure1_initial_dynamic_cost();

  algo::OnlineGreedy greedy;
  const double greedy_cost =
      sim::Simulator::run(instance, greedy).weighted_total;

  algo::OnlineApproxOptions approx_options;
  approx_options.eps1 = 0.1;  // small smoothing for this tiny example
  approx_options.eps2 = 0.1;
  algo::OnlineApprox approx(approx_options);
  const double approx_cost =
      sim::Simulator::run(instance, approx).weighted_total;

  const algo::OfflineResult offline = algo::solve_offline(instance);
  const double offline_cost =
      sim::Simulator::score(instance, "offline", offline.allocations)
          .weighted_total;

  std::printf("--- %s ---\n", label);
  std::printf("%-16s %10s %18s %13s\n", "strategy", "total cost",
              "minus provisioning", "paper reports");
  std::printf("%-16s %10.3f %18.3f %13.1f\n", "online-greedy", greedy_cost,
              greedy_cost - provisioning, paper_greedy);
  std::printf("%-16s %10.3f %18.3f %13.1f\n", "offline-opt (LP)",
              offline_cost, offline_cost - provisioning, paper_optimal);
  std::printf("%-16s %10.3f %18.3f %13s\n", "online-approx", approx_cost,
              approx_cost - provisioning, "-");
}

}  // namespace

int main() {
  std::printf("=== Figure 1: greedy pathologies on two-cloud examples ===\n");
  std::printf(
      "(totals include the slot-1 provisioning cost of %.1f, which the\n"
      " paper's arithmetic omits; the third column removes it)\n\n",
      eca::sim::figure1_initial_dynamic_cost());
  run_example("(a) greedy is too aggressive (delay 2.1, path A-B-A)",
              eca::sim::figure1a_instance(), eca::sim::kFigure1aGreedyCost,
              eca::sim::kFigure1aOptimalCost);
  std::printf("\n");
  run_example("(b) greedy is too conservative (delay 1.9, path A-B-B)",
              eca::sim::figure1b_instance(), eca::sim::kFigure1bGreedyCost,
              eca::sim::kFigure1bOptimalCost);
  std::printf(
      "\nnote: in (b) the LP optimum (%.1f before provisioning) beats the\n"
      "paper's narrated optimum (%.1f) by pre-provisioning at B in slot 1 —\n"
      "the paper's arithmetic does not charge initial provisioning.\n",
      eca::sim::kFigure1bTrueOptimalCost, eca::sim::kFigure1bOptimalCost);
  return 0;
}
