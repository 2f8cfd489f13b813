#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <numeric>

#include "algo/baselines.h"
#include "algo/online_approx.h"
#include "sim/scenario.h"

namespace eca::sim {
namespace {

model::Instance small_instance(std::uint64_t seed) {
  ScenarioOptions options;
  options.num_users = 6;
  options.num_slots = 5;
  options.seed = seed;
  return make_random_walk_instance(options);
}

TEST(Simulator, PerSlotCostsSumToTotal) {
  const model::Instance instance = small_instance(1);
  algo::OnlineApprox algorithm;
  const SimulationResult result = Simulator::run(instance, algorithm);
  const double sum =
      std::accumulate(result.per_slot.begin(), result.per_slot.end(), 0.0);
  EXPECT_NEAR(sum, result.weighted_total, 1e-8 * (1.0 + sum));
}

TEST(Simulator, BreakdownSumsToWeightedTotal) {
  const model::Instance instance = small_instance(2);
  algo::OnlineGreedy algorithm;
  const SimulationResult result = Simulator::run(instance, algorithm);
  const double manual =
      instance.weights.static_weight *
          (result.cost.operation + result.cost.service_quality) +
      instance.weights.dynamic_weight *
          (result.cost.reconfiguration + result.cost.migration);
  EXPECT_DOUBLE_EQ(result.weighted_total, manual);
}

TEST(Simulator, CleansSolverDust) {
  const model::Instance instance = small_instance(3);
  algo::OnlineGreedy algorithm;
  const SimulationResult result = Simulator::run(instance, algorithm);
  for (const auto& alloc : result.allocations) {
    for (double v : alloc.x) {
      EXPECT_TRUE(v == 0.0 || v >= 1e-9);
    }
  }
}

TEST(Simulator, DeterministicForDeterministicAlgorithms) {
  const model::Instance instance = small_instance(4);
  algo::StatOpt a1, a2;
  const SimulationResult r1 = Simulator::run(instance, a1);
  const SimulationResult r2 = Simulator::run(instance, a2);
  EXPECT_EQ(r1.weighted_total, r2.weighted_total);
  for (std::size_t t = 0; t < instance.num_slots; ++t) {
    EXPECT_EQ(r1.allocations[t].x, r2.allocations[t].x);
  }
}

TEST(Simulator, ScoreMatchesRunForSameAllocations) {
  const model::Instance instance = small_instance(5);
  algo::OnlineApprox algorithm;
  const SimulationResult run = Simulator::run(instance, algorithm);
  const SimulationResult scored =
      Simulator::score(instance, "rescored", run.allocations);
  EXPECT_DOUBLE_EQ(scored.weighted_total, run.weighted_total);
  EXPECT_EQ(scored.algorithm, "rescored");
  EXPECT_EQ(scored.per_slot, run.per_slot);
}

TEST(Simulator, RecordsAlgorithmNameAndTiming) {
  const model::Instance instance = small_instance(6);
  algo::PerfOpt algorithm;
  const SimulationResult result = Simulator::run(instance, algorithm);
  EXPECT_EQ(result.algorithm, "perf-opt");
  EXPECT_GE(result.wall_seconds, 0.0);
  EXPECT_LT(result.wall_seconds, 60.0);
}

TEST(Simulator, RunTelemetryRecordsEverySlot) {
  const model::Instance instance = small_instance(7);
  algo::OnlineApprox algorithm;
  const SimulationResult result = Simulator::run(instance, algorithm);
  const obs::RunTelemetry& run = result.telemetry;
  EXPECT_EQ(run.algorithm, "online-approx");
  EXPECT_EQ(run.num_clouds, instance.num_clouds);
  EXPECT_EQ(run.num_users, instance.num_users);
  EXPECT_EQ(run.num_slots, instance.num_slots);
  EXPECT_EQ(run.total_cost, result.weighted_total);
  ASSERT_EQ(run.slots.size(), instance.num_slots);
  double sum = 0.0;
  for (std::size_t t = 0; t < run.slots.size(); ++t) {
    EXPECT_EQ(run.slots[t].slot, t);
    EXPECT_TRUE(run.slots[t].has_solve);
    EXPECT_GT(run.slots[t].solve.newton_iterations, 0);
    sum += run.slots[t].cost_total();
  }
  EXPECT_NEAR(sum, run.total_cost, 1e-9 * (1.0 + sum));

  // A baseline exposes no solver stats; a scored sequence carries the name
  // it was scored under.
  algo::StatOpt baseline;
  const SimulationResult scored = Simulator::score(
      instance, "offline-opt", Simulator::run(instance, baseline).allocations);
  EXPECT_EQ(scored.telemetry.algorithm, "offline-opt");
  ASSERT_EQ(scored.telemetry.slots.size(), instance.num_slots);
  for (const obs::SlotTelemetry& slot : scored.telemetry.slots) {
    EXPECT_FALSE(slot.has_solve);
  }
}

}  // namespace
}  // namespace eca::sim
