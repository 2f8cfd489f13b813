// Pins that TimedAlgorithm is invisible to the program: decorated runs take
// the same path (slot fan-out included) and produce bitwise-identical
// allocations, costs and competitive ratios, while every decide — clones'
// included — lands in the DecideLog exactly once.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "timed_algorithm.h"

namespace eca::perfbench {
namespace {

model::Instance small_taxi_instance() {
  sim::ScenarioOptions options;
  options.num_users = 8;
  options.num_slots = 10;
  options.workload.distribution = workload::Distribution::kPower;
  options.seed = 7;
  return sim::make_rome_taxi_instance(options, 2);
}

// Oversubscribed slot workers with a one-cell work floor engage the
// simulator's slot fan-out for every slot-separable algorithm, so its
// decides run on decorated clones; each clone's samples must still arrive.
TEST(TimedAlgorithm, SimulatorRunIsBitwiseIdenticalWithSlotFanOut) {
  const model::Instance instance = small_taxi_instance();
  sim::SimulatorOptions options;
  options.baseline_threads = 3;
  options.min_slot_work = 1;
  options.oversubscribe = true;

  for (const sim::NamedFactory& f : sim::paper_algorithms(true)) {
    SCOPED_TRACE(f.name);
    algo::AlgorithmPtr plain = f.make();
    const sim::SimulationResult expected =
        sim::Simulator::run(instance, *plain, options);

    DecideLog log;
    {
      TimedAlgorithm timed(f.make(), &log);
      EXPECT_EQ(timed.name(), plain->name());
      EXPECT_EQ(timed.slot_separable(), plain->slot_separable());
      if (plain->slot_separable()) {
        EXPECT_NE(timed.clone_for_slots(), nullptr);
      }
      const sim::SimulationResult got =
          sim::Simulator::run(instance, timed, options);
      EXPECT_EQ(got.algorithm, expected.algorithm);
      EXPECT_EQ(got.weighted_total, expected.weighted_total);
      EXPECT_EQ(got.max_violation, expected.max_violation);
      ASSERT_EQ(got.allocations.size(), expected.allocations.size());
      for (std::size_t t = 0; t < got.allocations.size(); ++t) {
        EXPECT_EQ(got.allocations[t].x, expected.allocations[t].x) << t;
      }
      // Forwarded solver telemetry reaches the run record unchanged.
      ASSERT_EQ(got.telemetry.slots.size(), expected.telemetry.slots.size());
      for (std::size_t t = 0; t < got.telemetry.slots.size(); ++t) {
        EXPECT_EQ(got.telemetry.slots[t].has_solve,
                  expected.telemetry.slots[t].has_solve);
        EXPECT_EQ(got.telemetry.slots[t].solve.newton_iterations,
                  expected.telemetry.slots[t].solve.newton_iterations);
      }
    }
    const auto samples = log.snapshot();
    ASSERT_EQ(samples.count(f.name), 1u);
    EXPECT_EQ(samples.at(f.name).size(), instance.num_slots);
  }
}

TEST(TimedAlgorithm, ExperimentRatiosAreBitwiseIdentical) {
  const auto make = [](int rep) {
    sim::ScenarioOptions options;
    options.num_users = 6;
    options.num_slots = 6;
    options.workload.distribution = workload::Distribution::kPower;
    options.seed = 11 + static_cast<std::uint64_t>(rep);
    return sim::make_rome_taxi_instance(options, rep % 6);
  };
  sim::ExperimentOptions options;
  options.repetitions = 3;
  options.threads = 3;
  const std::vector<sim::NamedFactory> plain = sim::paper_algorithms(true);
  const sim::ExperimentResult expected =
      sim::run_experiment(make, plain, options);

  DecideLog log;
  std::vector<sim::NamedFactory> timed;
  for (const sim::NamedFactory& f : plain) {
    timed.push_back({f.name, [make = f.make, &log] {
                       return algo::AlgorithmPtr(
                           std::make_unique<TimedAlgorithm>(make(), &log));
                     }});
  }
  const sim::ExperimentResult got = sim::run_experiment(make, timed, options);

  EXPECT_EQ(got.offline_cost.mean(), expected.offline_cost.mean());
  ASSERT_EQ(got.algorithms.size(), expected.algorithms.size());
  for (std::size_t a = 0; a < got.algorithms.size(); ++a) {
    SCOPED_TRACE(got.algorithms[a].name);
    EXPECT_EQ(got.algorithms[a].name, expected.algorithms[a].name);
    EXPECT_EQ(got.algorithms[a].ratio.mean(), expected.algorithms[a].ratio.mean());
    EXPECT_EQ(got.algorithms[a].ratio.stddev(),
              expected.algorithms[a].ratio.stddev());
    EXPECT_EQ(got.algorithms[a].absolute_cost.mean(),
              expected.algorithms[a].absolute_cost.mean());
  }
  EXPECT_EQ(log.decides(Family::kApprox).size(), 3u * 6u);
  EXPECT_EQ(log.decides(Family::kBaseline).size(), 4u * 3u * 6u);
}

}  // namespace
}  // namespace eca::perfbench
