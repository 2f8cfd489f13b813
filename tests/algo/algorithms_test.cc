#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "algo/baselines.h"
#include "algo/online_approx.h"
#include "algo/slot_lp.h"
#include "sim/paper_examples.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace eca::algo {
namespace {

using model::Instance;
using sim::Simulator;

// Small scenario for property tests.
Instance small_instance(std::uint64_t seed,
                        workload::Distribution dist =
                            workload::Distribution::kPower) {
  sim::ScenarioOptions options;
  options.num_users = 8;
  options.num_slots = 6;
  options.workload.distribution = dist;
  options.seed = seed;
  return sim::make_random_walk_instance(options);
}

class AlgorithmFeasibility
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AlgorithmFeasibility, ProducesFeasibleAllocations) {
  const auto [algo_idx, seed] = GetParam();
  const Instance instance = small_instance(static_cast<std::uint64_t>(seed));
  const auto roster = sim::paper_algorithms(/*include_static_once=*/true);
  ASSERT_LT(static_cast<std::size_t>(algo_idx), roster.size());
  auto algorithm = roster[static_cast<std::size_t>(algo_idx)].make();
  const sim::SimulationResult result = Simulator::run(instance, *algorithm);
  EXPECT_LT(result.max_violation, 1e-5)
      << roster[static_cast<std::size_t>(algo_idx)].name;
  EXPECT_GT(result.weighted_total, 0.0);
  EXPECT_EQ(result.per_slot.size(), instance.num_slots);
}

INSTANTIATE_TEST_SUITE_P(RosterBySeed, AlgorithmFeasibility,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Range(0, 4)));

TEST(OnlineGreedy, IsAggressiveOnFigure1a) {
  // Greedy follows the user A -> B -> A and pays the paper's 11.5 (plus
  // the initial provisioning constant).
  const Instance instance = sim::figure1a_instance();
  OnlineGreedy greedy;
  const sim::SimulationResult result = Simulator::run(instance, greedy);
  EXPECT_NEAR(result.weighted_total,
              sim::kFigure1aGreedyCost + sim::figure1_initial_dynamic_cost(),
              1e-4);
}

TEST(OnlineGreedy, IsConservativeOnFigure1b) {
  const Instance instance = sim::figure1b_instance();
  OnlineGreedy greedy;
  const sim::SimulationResult result = Simulator::run(instance, greedy);
  EXPECT_NEAR(result.weighted_total,
              sim::kFigure1bGreedyCost + sim::figure1_initial_dynamic_cost(),
              1e-4);
}

TEST(OnlineApprox, BeatsGreedyOnBothFigure1Examples) {
  for (const Instance& instance :
       {sim::figure1a_instance(), sim::figure1b_instance()}) {
    OnlineGreedy greedy;
    OnlineApprox approx;
    const double greedy_cost =
        Simulator::run(instance, greedy).weighted_total;
    const double approx_cost =
        Simulator::run(instance, approx).weighted_total;
    EXPECT_LT(approx_cost, greedy_cost + 1e-6);
  }
}

TEST(OnlineApprox, SubproblemCarriesWeightedPrices) {
  Instance instance = sim::figure1a_instance();
  instance.weights = model::CostWeights{2.0, 3.0};
  OnlineApprox approx;
  model::Allocation prev(2, 1);
  prev.at(0, 0) = 1.0;
  const solve::RegularizedProblem p =
      approx.build_subproblem(instance, 1, prev);
  // Slot 1: user at B(=1). linear cost for cloud 0 = ws*(op + d(B,A)/λ).
  EXPECT_DOUBLE_EQ(p.linear_cost[p.index(0, 0)], 2.0 * (1.0 + 2.1));
  EXPECT_DOUBLE_EQ(p.linear_cost[p.index(1, 0)], 2.0 * 1.0);
  EXPECT_DOUBLE_EQ(p.recon_price[0], 3.0 * 1.0);
  EXPECT_DOUBLE_EQ(p.migration_price[0], 3.0 * 1.0);
  EXPECT_EQ(p.prev, prev.x);
}

TEST(OnlineApprox, AblationWithoutRegularizersMatchesStatOpt) {
  const Instance instance = small_instance(5);
  OnlineApproxOptions options;
  options.use_reconfiguration_regularizer = false;
  options.use_migration_regularizer = false;
  OnlineApprox ablated(options);
  StatOpt stat_opt;
  const double ablated_cost =
      Simulator::run(instance, ablated).cost.static_cost();
  const double stat_cost =
      Simulator::run(instance, stat_opt).cost.static_cost();
  // Both minimize the same static objective each slot (up to solver
  // tolerance and degenerate ties in the dynamic tie-breaking).
  EXPECT_NEAR(ablated_cost, stat_cost, 1e-2 * (1.0 + stat_cost));
}

TEST(Atomistic, PerfOptIgnoresOperationPrices) {
  // perf-opt keeps workload at the attachment cloud regardless of price:
  // its service-quality cost is minimal among all algorithms.
  const Instance instance = small_instance(9);
  PerfOpt perf;
  StatOpt stat;
  const auto perf_result = Simulator::run(instance, perf);
  const auto stat_result = Simulator::run(instance, stat);
  EXPECT_LE(perf_result.cost.service_quality,
            stat_result.cost.service_quality + 1e-6);
}

TEST(Atomistic, OperOptMinimizesOperationCost) {
  const Instance instance = small_instance(10);
  OperOpt oper;
  PerfOpt perf;
  const auto oper_result = Simulator::run(instance, oper);
  const auto perf_result = Simulator::run(instance, perf);
  EXPECT_LE(oper_result.cost.operation, perf_result.cost.operation + 1e-6);
}

TEST(StatOpt, MinimizesStaticSlotCost) {
  const Instance instance = small_instance(11);
  StatOpt stat;
  PerfOpt perf;
  OperOpt oper;
  const double stat_static =
      Simulator::run(instance, stat).cost.static_cost();
  EXPECT_LE(stat_static,
            Simulator::run(instance, perf).cost.static_cost() + 1e-6);
  EXPECT_LE(stat_static,
            Simulator::run(instance, oper).cost.static_cost() + 1e-6);
}

// The three atomistic baselines by (name, include_operation,
// include_service_quality), as AtomisticAlgorithm takes them.
struct AtomisticSpec {
  const char* name;
  bool operation;
  bool service_quality;
};
constexpr AtomisticSpec kAtomistic[] = {{"perf-opt", false, true},
                                        {"oper-opt", true, false},
                                        {"stat-opt", true, true}};

// A larger input than small_instance: a random walk over the default 15
// clouds, J=32, 8 slots.
Instance medium_instance() {
  sim::ScenarioOptions options;
  options.num_users = 32;
  options.num_slots = 8;
  options.seed = 33;
  return sim::make_random_walk_instance(options);
}

// Feasibility bound on every decided allocation.
constexpr double kMaxViolation = 1e-5;

TEST(Baselines, AtomisticMatchesDirectColdSolveBitwise) {
  // The skeleton refresh and the reused workspace are invisible: every
  // decision equals a from-scratch build, a cold solve in a fresh workspace
  // and the extraction, bit for bit.
  for (const Instance& instance : {small_instance(21), medium_instance()}) {
    const model::Allocation none(instance.num_clouds, instance.num_users);
    for (const AtomisticSpec& spec : kAtomistic) {
      AtomisticAlgorithm algorithm(spec.name, spec.operation,
                                   spec.service_quality);
      algorithm.reset(instance);
      model::AllocationSequence decided;
      for (std::size_t t = 0; t < instance.num_slots; ++t) {
        const StaticSlotLp built = build_static_slot_lp(
            instance, t, spec.operation, spec.service_quality);
        const solve::LpSolution sol =
            solve::InteriorPointLp().solve(built.lp);
        ASSERT_EQ(sol.status, solve::SolveStatus::kOptimal);
        decided.push_back(algorithm.decide(instance, t, none));
        EXPECT_EQ(decided.back().x, extract_static(instance, sol.x).x)
            << spec.name << " J=" << instance.num_users << " slot " << t;
      }
      EXPECT_LE(model::max_violation(instance, decided), kMaxViolation)
          << spec.name << " J=" << instance.num_users;
    }
  }
}

TEST(Baselines, OnlineGreedyMatchesDirectColdSolveBitwise) {
  // Online-greedy's skeleton refresh also rewrites bounds that follow the
  // previous decision; the decisions must still equal the direct reference.
  for (const Instance& instance : {small_instance(22), medium_instance()}) {
    OnlineGreedy greedy;
    greedy.reset(instance);
    model::AllocationSequence decided;
    model::Allocation previous(instance.num_clouds, instance.num_users);
    for (std::size_t t = 0; t < instance.num_slots; ++t) {
      const GreedySlotLp built = build_greedy_slot_lp(instance, t, previous);
      const solve::LpSolution sol = solve::InteriorPointLp().solve(built.lp);
      ASSERT_EQ(sol.status, solve::SolveStatus::kOptimal);
      decided.push_back(greedy.decide(instance, t, previous));
      EXPECT_EQ(decided.back().x, built.extract(instance, sol.x).x)
          << "J=" << instance.num_users << " slot " << t;
      previous = decided.back();
    }
    EXPECT_LE(model::max_violation(instance, decided), kMaxViolation)
        << "J=" << instance.num_users;
  }
}

TEST(Baselines, AtomisticSlotDecisionIgnoresEarlierSlots) {
  // Slot separability, which the simulator's slot fan-out relies on: one
  // algorithm object decides every slot forward, then again in reverse, and
  // each slot's decision is bitwise the same both times.
  sim::ScenarioOptions options;
  options.num_users = 8;
  options.num_slots = 9;
  options.seed = 23;
  const Instance instance = sim::make_random_walk_instance(options);
  const model::Allocation none(instance.num_clouds, instance.num_users);
  for (const AtomisticSpec& spec : kAtomistic) {
    AtomisticAlgorithm algorithm(spec.name, spec.operation,
                                 spec.service_quality);
    algorithm.reset(instance);
    std::vector<model::Allocation> forward;
    for (std::size_t t = 0; t < instance.num_slots; ++t) {
      forward.push_back(algorithm.decide(instance, t, none));
    }
    for (std::size_t t = instance.num_slots; t-- > 0;) {
      EXPECT_EQ(algorithm.decide(instance, t, none).x, forward[t].x)
          << spec.name << " slot " << t;
    }
  }
}

TEST(StaticOnceDeathTest, DecideWithoutResetAborts) {
  // decide() before reset() (or after a reset on a different-shaped
  // instance) must fail loudly, not silently return a zero allocation.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Instance instance = small_instance(13);
  StaticOnce algorithm;
  const model::Allocation previous(instance.num_clouds, instance.num_users);
  EXPECT_DEATH((void)algorithm.decide(instance, 0, previous),
               "StaticOnce::reset");
  // A reset against a narrower instance must not satisfy the check either:
  // the cloud count can match while the user count does not.
  sim::ScenarioOptions narrow;
  narrow.num_users = 4;
  narrow.num_slots = 2;
  narrow.seed = 13;
  const Instance other = sim::make_random_walk_instance(narrow);
  ASSERT_EQ(other.num_clouds, instance.num_clouds);
  ASSERT_NE(other.num_users, instance.num_users);
  algorithm.reset(other);
  EXPECT_DEATH((void)algorithm.decide(instance, 0, previous),
               "StaticOnce::reset");
}

TEST(StaticOnce, NeverAdaptsAfterSlotZero) {
  const Instance instance = small_instance(12);
  StaticOnce algorithm;
  const sim::SimulationResult result = Simulator::run(instance, algorithm);
  for (std::size_t t = 1; t < instance.num_slots; ++t) {
    EXPECT_EQ(result.allocations[t].x, result.allocations[0].x);
  }
  // After the initial provisioning, no dynamic cost accrues.
  const model::CostBreakdown first =
      model::slot_cost(instance, 0, result.allocations[0], nullptr);
  EXPECT_NEAR(result.cost.dynamic_cost(), first.dynamic_cost(), 1e-9);
}

}  // namespace
}  // namespace eca::algo
