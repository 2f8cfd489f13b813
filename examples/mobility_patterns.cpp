// Mobility playground: generate traces from every built-in mobility model
// and compare their statistics — and how much each pattern costs the
// online algorithm.
//
//   $ ./examples/mobility_patterns
#include <cstdio>
#include <memory>

#include "algo/online_approx.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

int main() {
  using namespace eca;
  const auto& metro = geo::rome_metro();

  struct Entry {
    const char* name;
    std::unique_ptr<mobility::MobilityModel> model;
  };
  std::vector<Entry> models;
  models.push_back({"stationary",
                    std::make_unique<mobility::StationaryMobility>(metro)});
  models.push_back(
      {"random-walk", std::make_unique<mobility::RandomWalkMobility>(metro)});
  models.push_back({"taxi", std::make_unique<mobility::TaxiMobility>(metro)});
  models.push_back({"ping-pong (Ottaviano<->San Giovanni)",
                    std::make_unique<mobility::PingPongMobility>(metro, 0, 9,
                                                                 /*period=*/4)});

  sim::ScenarioOptions options;
  options.num_users = 15;
  options.num_slots = 24;
  options.seed = 17;

  std::printf("%-10s %13s %-16s %18s %13s\n", "mobility", "handover rate",
              "busiest station", "online-approx cost", "dynamic share");
  for (const auto& entry : models) {
    Rng rng(options.seed);
    const mobility::MobilityTrace trace =
        entry.model->generate(rng, options.num_users, options.num_slots);
    const auto freq = trace.attachment_frequency(metro.size());
    std::size_t busiest = 0;
    for (std::size_t i = 1; i < freq.size(); ++i) {
      if (freq[i] > freq[busiest]) busiest = i;
    }
    const model::Instance instance =
        sim::make_instance(metro, *entry.model, options);
    algo::OnlineApprox approx;
    const sim::SimulationResult result =
        sim::Simulator::run(instance, approx);
    std::printf("%-10s %13.3f %-16s %18.1f %13.3f\n", entry.name,
                trace.handover_rate(), metro.station(busiest).name.c_str(),
                result.weighted_total,
                result.cost.dynamic_cost() / result.weighted_total);
  }
  std::printf(
      "\nmore movement -> more dynamic (reconfiguration + migration) cost.\n"
      "ping-pong is the adversarial pattern: every period forces a "
      "decision\nbetween following the users and eating the delay.\n");
  return 0;
}
