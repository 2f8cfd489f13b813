// Price-dynamics scenario: what happens when one edge cloud's operation
// price spikes mid-experiment?
//
//   $ ./examples/price_spike
//
// Builds a hand-crafted instance where users are stationary (mobility is
// not the driver here) and cloud 0 — initially the cheapest — becomes 8x
// more expensive for a stretch of slots. Shows per-slot costs of
// online-greedy vs online-approx: greedy reacts instantly (and pays the
// migration both ways), while the regularized algorithm hedges, moving
// only as much as the price gap justifies — the Figure-1 story, driven by
// prices instead of mobility.
#include <cstdio>

#include "algo/baselines.h"
#include "algo/online_approx.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

int main() {
  using namespace eca;

  // Start from a stationary-user scenario, then inject the spike.
  sim::ScenarioOptions options;
  options.num_users = 15;
  options.num_slots = 24;
  options.seed = 99;
  const mobility::StationaryMobility stationary(geo::rome_metro());
  model::Instance instance =
      sim::make_instance(geo::rome_metro(), stationary, options);

  // Make cloud 0 clearly the cheapest, then spike it for slots 8..15.
  for (std::size_t t = 0; t < instance.num_slots; ++t) {
    instance.operation_price[t][0] = 0.2;
    if (t >= 8 && t < 16) instance.operation_price[t][0] = 1.6;
  }

  algo::OnlineGreedy greedy;
  algo::OnlineApprox approx;
  const sim::SimulationResult greedy_result =
      sim::Simulator::run(instance, greedy);
  const sim::SimulationResult approx_result =
      sim::Simulator::run(instance, approx);

  std::printf("%4s %14s %16s %16s %8s %8s\n", "slot", "price(cloud 0)",
              "greedy slot cost", "approx slot cost", "greedy@0", "approx@0");
  for (std::size_t t = 0; t < instance.num_slots; ++t) {
    std::printf("%4zu %14.1f %16.1f %16.1f %8.1f %8.1f\n", t,
                instance.operation_price[t][0], greedy_result.per_slot[t],
                approx_result.per_slot[t],
                greedy_result.allocations[t].cloud_totals()[0],
                approx_result.allocations[t].cloud_totals()[0]);
  }
  std::printf("\ntotals: greedy %.1f vs online-approx %.1f\n",
              greedy_result.weighted_total, approx_result.weighted_total);
  std::printf(
      "watch the last two columns: greedy evacuates cloud 0 abruptly at the\n"
      "spike and floods back after it, while online-approx moves "
      "gradually.\n");
  return 0;
}
