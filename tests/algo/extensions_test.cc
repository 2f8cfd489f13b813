#include "algo/extensions.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "algo/baselines.h"
#include "algo/offline.h"
#include "sim/paper_examples.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "solve/ipm_lp.h"

namespace eca::algo {
namespace {

using model::Instance;
using sim::Simulator;

Instance small_instance(std::uint64_t seed) {
  sim::ScenarioOptions options;
  options.num_users = 6;
  options.num_slots = 6;
  options.seed = seed;
  return sim::make_random_walk_instance(options);
}

TEST(Lookahead, WindowOneMatchesGreedy) {
  const Instance instance = small_instance(1);
  LookaheadOptions options;
  options.window = 1;
  LookaheadOpt lookahead(options);
  OnlineGreedy greedy;
  const double lookahead_cost =
      Simulator::run(instance, lookahead).weighted_total;
  const double greedy_cost = Simulator::run(instance, greedy).weighted_total;
  EXPECT_NEAR(lookahead_cost, greedy_cost,
              1e-3 * (1.0 + greedy_cost));
}

TEST(Lookahead, FullWindowMatchesOffline) {
  const Instance instance = small_instance(2);
  LookaheadOptions options;
  options.window = instance.num_slots;
  LookaheadOpt lookahead(options);
  const double lookahead_cost =
      Simulator::run(instance, lookahead).weighted_total;
  const OfflineResult offline = solve_offline(instance);
  const double opt =
      Simulator::score(instance, "offline", offline.allocations)
          .weighted_total;
  // Full lookahead re-solves the remaining horizon each slot; committing
  // the first slot of an optimal plan keeps the plan optimal, so the total
  // matches the offline optimum. Both solve build_horizon_lp with the same
  // IPM (slot 0's LP is the offline LP bit for bit), and each of the T = 6
  // solves stops at a relative gap of 1e-8 over |primal| + |dual|, i.e.
  // within 2e-8 of its objective: 6 × 2e-8 rounds up to 2e-7. Seeds 1–12
  // agreed to 3.3e-9 or better.
  EXPECT_NEAR(lookahead_cost, opt, 2e-7 * (1.0 + opt));
}

TEST(Lookahead, SolvesTheAggressiveExampleOptimally) {
  // With 2 slots of foresight on Figure 1(a) the lookahead sees the user
  // will return to A and keeps the workload there, matching the optimum.
  const Instance instance = sim::figure1a_instance();
  LookaheadOptions options;
  options.window = 3;
  LookaheadOpt lookahead(options);
  const double cost = Simulator::run(instance, lookahead).weighted_total;
  EXPECT_NEAR(cost,
              sim::kFigure1aOptimalCost + sim::figure1_initial_dynamic_cost(),
              1e-4);
}

class LookaheadWindows : public ::testing::TestWithParam<int> {};

TEST_P(LookaheadWindows, FeasibleAndBetween) {
  const Instance instance = small_instance(3);
  LookaheadOptions options;
  options.window = static_cast<std::size_t>(GetParam());
  LookaheadOpt lookahead(options);
  const sim::SimulationResult result = Simulator::run(instance, lookahead);
  EXPECT_LT(result.max_violation, 1e-5);
  const OfflineResult offline = solve_offline(instance);
  const double opt =
      Simulator::score(instance, "offline", offline.allocations)
          .weighted_total;
  EXPECT_GE(result.weighted_total, opt * (1.0 - 5e-3));
}

INSTANTIATE_TEST_SUITE_P(Windows, LookaheadWindows, ::testing::Values(1, 2, 3, 6));

TEST(LazyGreedy, FeasibleAndNoWorseThanTwiceGreedy) {
  for (std::uint64_t seed : {4u, 5u, 6u}) {
    const Instance instance = small_instance(seed);
    LazyGreedy lazy;
    OnlineGreedy greedy;
    const sim::SimulationResult lazy_result =
        Simulator::run(instance, lazy);
    const double greedy_cost =
        Simulator::run(instance, greedy).weighted_total;
    EXPECT_LT(lazy_result.max_violation, 1e-5);
    // Hysteresis trades optimality for stability but must stay sane.
    EXPECT_LT(lazy_result.weighted_total, 2.0 * greedy_cost);
  }
}

TEST(LazyGreedy, ZeroThresholdStillReoptimizes) {
  const Instance instance = small_instance(7);
  LazyGreedyOptions options;
  options.threshold = 0.0;
  LazyGreedy lazy(options);
  OnlineGreedy greedy;
  const double lazy_cost = Simulator::run(instance, lazy).weighted_total;
  const double greedy_cost = Simulator::run(instance, greedy).weighted_total;
  // With no slack, lazy only keeps the previous allocation when keeping is
  // at least as cheap — it can still beat greedy but never by paying more
  // than the strictly-better-every-slot policy would.
  EXPECT_LT(lazy_cost, 1.5 * greedy_cost);
}

TEST(LazyGreedy, HugeThresholdFreezesAllocation) {
  const Instance instance = small_instance(8);
  LazyGreedyOptions options;
  options.threshold = 1e9;
  LazyGreedy lazy(options);
  const sim::SimulationResult result = Simulator::run(instance, lazy);
  for (std::size_t t = 1; t < instance.num_slots; ++t) {
    EXPECT_EQ(result.allocations[t].x, result.allocations[0].x) << t;
  }
}

TEST(LookaheadLp, WindowClampsAtHorizon) {
  const Instance instance = small_instance(9);
  model::Allocation previous(instance.num_clouds, instance.num_users);
  const solve::LpProblem lp =
      build_horizon_lp(instance, instance.num_slots - 1, 5, previous);
  const std::size_t kIJ = instance.num_clouds * instance.num_users;
  // Only one slot remains: x + u + v for a single slot.
  EXPECT_EQ(lp.num_vars, kIJ + instance.num_clouds + kIJ);
  EXPECT_TRUE(lp.validate().empty());
}

// bench_extensions' default shape: I=15, J=15 and a 4-slot window give 1080
// rows, over the 900-row limit that once sent every lookahead slot to PDHG.
// Its envelope factor is far below the crossover, so each slot is the
// exact IPM optimum of the anchored window LP, bit for bit.
TEST(LookaheadLp, DefaultBenchShapeTakesTheExactIpm) {
  sim::ScenarioOptions options;
  options.num_users = 15;
  options.num_slots = 6;
  options.seed = 1;
  const Instance instance = sim::make_rome_taxi_instance(options, 0);
  ASSERT_EQ(instance.num_clouds, 15u);
  LookaheadOptions lookahead_options;
  lookahead_options.window = 4;
  LookaheadOpt lookahead(lookahead_options);
  model::Allocation previous(instance.num_clouds, instance.num_users);
  for (std::size_t t = 0; t < 2; ++t) {
    const solve::LpProblem lp = build_horizon_lp(instance, t, 4, previous);
    EXPECT_EQ(lp.num_rows, 1080u);
    const solve::LpSolution exact = solve::InteriorPointLp().solve(lp);
    ASSERT_EQ(exact.status, solve::SolveStatus::kOptimal);
    const model::Allocation decided = lookahead.decide(instance, t, previous);
    for (std::size_t k = 0; k < decided.x.size(); ++k) {
      EXPECT_EQ(decided.x[k], std::max(exact.x[k], 0.0)) << "slot " << t;
    }
    previous = decided;
  }
}

}  // namespace
}  // namespace eca::algo
