// Fidelity of the streaming class-space driver (sim/aggregated.h) against
// the materializing simulator running the same aggregated algorithm: the
// two paths perform bitwise-identical collapsed solves and differ only in
// cost summation order.
#include "sim/aggregated.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "algo/online_approx.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace eca::sim {
namespace {

using model::Instance;

void expect_rel_near(double a, double b, double rel,
                     const char* what = "value") {
  EXPECT_NEAR(a, b, rel * std::max(1.0, std::abs(a))) << what;
}

Instance collapse_instance(std::uint64_t seed, std::size_t num_users,
                           std::size_t num_slots, bool retain_positions) {
  ScenarioOptions options;
  options.num_users = num_users;
  options.num_slots = num_slots;
  options.workload.distribution = workload::Distribution::kUniform;
  options.workload.mean = 2.0;
  options.seed = seed;
  options.retain_positions = retain_positions;
  return make_random_walk_instance(options);
}

TEST(StreamingAggregated, MatchesSimulatorRunToSummationOrder) {
  const Instance instance =
      collapse_instance(23, /*num_users=*/48, /*num_slots=*/8,
                        /*retain_positions=*/true);
  algo::OnlineApproxOptions options;
  options.aggregate_users = true;

  algo::OnlineApprox algorithm(options);
  const SimulationResult sim = Simulator::run(instance, algorithm);
  const AggregatedRunResult str =
      run_aggregated_online_approx(instance, options);

  ASSERT_EQ(str.per_slot.size(), instance.num_slots);
  for (std::size_t t = 0; t < instance.num_slots; ++t) {
    expect_rel_near(sim.per_slot[t], str.per_slot[t], 1e-9, "per-slot cost");
  }
  expect_rel_near(sim.weighted_total, str.weighted_total, 1e-9, "total");
  expect_rel_near(sim.cost.operation, str.cost.operation, 1e-9, "operation");
  expect_rel_near(sim.cost.service_quality, str.cost.service_quality, 1e-9,
                  "service_quality");
  expect_rel_near(sim.cost.reconfiguration, str.cost.reconfiguration, 1e-9,
                  "reconfiguration");
  expect_rel_near(sim.cost.migration, str.cost.migration, 1e-9, "migration");
  EXPECT_NEAR(sim.max_violation, str.max_violation, 1e-9);

  // Class statistics: the final slot's count must agree with what the
  // in-simulator aggregated algorithm saw, and the whole run collapsed.
  ASSERT_EQ(str.classes_per_slot.size(), instance.num_slots);
  EXPECT_EQ(str.classes_per_slot.back(), algorithm.last_num_classes());
  EXPECT_EQ(str.max_classes,
            *std::max_element(str.classes_per_slot.begin(),
                              str.classes_per_slot.end()));
  EXPECT_LT(str.max_classes, instance.num_users);

  // Telemetry parity: same schema, same weighted splits, solver stats on
  // every slot.
  ASSERT_EQ(str.telemetry.slots.size(), sim.telemetry.slots.size());
  for (std::size_t t = 0; t < str.telemetry.slots.size(); ++t) {
    const obs::SlotTelemetry& a = sim.telemetry.slots[t];
    const obs::SlotTelemetry& b = str.telemetry.slots[t];
    expect_rel_near(a.cost_operation, b.cost_operation, 1e-9);
    expect_rel_near(a.cost_service_quality, b.cost_service_quality, 1e-9);
    expect_rel_near(a.cost_reconfiguration, b.cost_reconfiguration, 1e-9);
    expect_rel_near(a.cost_migration, b.cost_migration, 1e-9);
    EXPECT_TRUE(b.has_solve);
    ASSERT_TRUE(a.has_solve);
    EXPECT_EQ(a.solve.newton_iterations, b.solve.newton_iterations)
        << "solve trajectories must be bitwise-identical at slot " << t;
  }
}

TEST(StreamingAggregated, RunsPositionFreeAtLargerScale) {
  // The million-user configuration in miniature: no retained positions
  // (access delays are zero) and J well past the class-count plateau.
  const Instance instance =
      collapse_instance(29, /*num_users=*/400, /*num_slots=*/5,
                        /*retain_positions=*/false);
  algo::OnlineApproxOptions options;
  options.aggregate_users = true;
  const AggregatedRunResult result =
      run_aggregated_online_approx(instance, options);
  EXPECT_GT(result.weighted_total, 0.0);
  EXPECT_LT(result.max_violation, 1e-5);
  EXPECT_EQ(result.per_slot.size(), instance.num_slots);
  // Early slots collapse hard — slot 0 is bounded by the (station, demand)
  // type count (≤ 15·3 here) regardless of J. Later slots fragment as the
  // previous-allocation columns diverge per trajectory, but never past J.
  ASSERT_FALSE(result.classes_per_slot.empty());
  EXPECT_LE(result.classes_per_slot[0], 45u);
  EXPECT_LE(result.max_classes, instance.num_users);
  EXPECT_GT(result.max_classes, 0u);
}

TEST(StreamingAggregated, CollapsesTenfoldAtOneHundredThousandUsers) {
  // Class aggregation exists for large J: on the default random-walk
  // scenario at J = 10^5 over T = 6 slots (seed 1 + J, positions dropped)
  // the mean per-slot class count must stay at least ten times below J.
  // This seed collapses 12.72x; DESIGN.md §12 explains why classes
  // fragment as T grows.
  ScenarioOptions scenario;
  scenario.num_users = 100000;
  scenario.num_slots = 6;
  scenario.seed = 1 + scenario.num_users;
  scenario.retain_positions = false;
  const Instance instance = make_random_walk_instance(scenario);
  algo::OnlineApproxOptions options;
  options.aggregate_users = true;
  const AggregatedRunResult result =
      run_aggregated_online_approx(instance, options);

  ASSERT_EQ(result.classes_per_slot.size(), instance.num_slots);
  double class_sum = 0.0;
  for (const std::size_t c : result.classes_per_slot) {
    class_sum += static_cast<double>(c);
  }
  const double mean_classes =
      class_sum / static_cast<double>(instance.num_slots);
  EXPECT_GE(static_cast<double>(instance.num_users) / mean_classes, 10.0)
      << "mean classes per slot " << mean_classes;
  EXPECT_LT(result.max_violation, 1e-5);
}

}  // namespace
}  // namespace eca::sim
