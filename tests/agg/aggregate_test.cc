#include "agg/aggregate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "algo/baselines.h"
#include "algo/online_approx.h"
#include "model/costs.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace eca::agg {
namespace {

using model::Allocation;
using model::Instance;
using sim::Simulator;

// Relative closeness for cross-path comparisons: the collapsed and per-user
// programs share their optimum mathematically but reach it through
// different solver trajectories, so values agree to solver tolerance.
void expect_rel_near(double a, double b, double rel,
                     const char* what = "value") {
  EXPECT_NEAR(a, b, rel * std::max(1.0, std::abs(a))) << what;
}

Instance collapse_instance(std::uint64_t seed, std::size_t num_users = 48,
                           std::size_t num_slots = 8) {
  sim::ScenarioOptions options;
  options.num_users = num_users;
  options.num_slots = num_slots;
  options.workload.distribution = workload::Distribution::kUniform;
  options.workload.mean = 2.0;
  options.seed = seed;
  return sim::make_random_walk_instance(options);
}

// Gather per-member previous columns (I × C) from a per-user allocation.
linalg::Vec gather_member_prev(const ClassPartition& part,
                               const Allocation& previous,
                               std::size_t num_clouds) {
  linalg::Vec member_prev(num_clouds * part.num_classes, 0.0);
  if (previous.x.empty()) return member_prev;
  for (std::size_t c = 0; c < part.num_classes; ++c) {
    for (std::size_t i = 0; i < num_clouds; ++i) {
      member_prev[i * part.num_classes + c] =
          previous.at(i, part.representative[c]);
    }
  }
  return member_prev;
}

TEST(CollapseProblem, DirectBuilderMatchesCollapseOfFullBitwise) {
  const Instance instance = collapse_instance(3);
  // A real (non-trivial) previous allocation from the stat-opt slot-0 LP.
  algo::StatOpt stat;
  stat.reset(instance);
  const Allocation previous =
      stat.decide(instance, 0, Allocation(instance.num_clouds,
                                          instance.num_users));
  const std::size_t t = 1;
  const ClassPartition part = build_slot_classes(instance, t, previous);
  ASSERT_GT(part.num_classes, 1u);

  const algo::OnlineApprox approx;
  const solve::RegularizedProblem full =
      approx.build_subproblem(instance, t, previous);
  const solve::RegularizedProblem via_full = collapse_problem(full, part);
  const solve::RegularizedProblem direct = build_collapsed_subproblem(
      instance, t, part,
      gather_member_prev(part, previous, instance.num_clouds),
      SubproblemParams{});

  EXPECT_EQ(direct.num_clouds, via_full.num_clouds);
  EXPECT_EQ(direct.num_users, via_full.num_users);
  EXPECT_EQ(direct.eps1, via_full.eps1);
  EXPECT_EQ(direct.eps2, via_full.eps2);
  EXPECT_EQ(direct.enforce_capacity, via_full.enforce_capacity);
  // Bitwise: std::vector<double>::operator== compares exact values.
  EXPECT_EQ(direct.demand, via_full.demand);
  EXPECT_EQ(direct.eps2_user, via_full.eps2_user);
  EXPECT_EQ(direct.linear_cost, via_full.linear_cost);
  EXPECT_EQ(direct.prev, via_full.prev);
  EXPECT_EQ(direct.recon_price, via_full.recon_price);
  EXPECT_EQ(direct.migration_price, via_full.migration_price);
  EXPECT_EQ(direct.capacity, via_full.capacity);
}

TEST(AggregatedOnlineApprox, MatchesPerUserCostsOverWarmTrajectory) {
  const Instance instance = collapse_instance(5);
  algo::OnlineApprox per_user;
  algo::OnlineApproxOptions agg_options;
  agg_options.aggregate_users = true;
  algo::OnlineApprox aggregated(agg_options);

  const sim::SimulationResult a = Simulator::run(instance, per_user);
  const sim::SimulationResult b = Simulator::run(instance, aggregated);

  // The coarse demand alphabet collapses the early slots hard; later slots
  // fragment as previous-allocation columns diverge per trajectory (the
  // partition is still exact — just closer to singletons).
  EXPECT_LT(build_slot_classes(instance, 0, Allocation{}).num_classes,
            instance.num_users);
  EXPECT_GT(aggregated.last_num_classes(), 0u);
  EXPECT_LE(aggregated.last_num_classes(), instance.num_users);
  EXPECT_EQ(per_user.last_num_classes(), instance.num_users);

  ASSERT_EQ(a.per_slot.size(), b.per_slot.size());
  for (std::size_t t = 0; t < a.per_slot.size(); ++t) {
    expect_rel_near(a.per_slot[t], b.per_slot[t], 1e-5, "per-slot cost");
  }
  expect_rel_near(a.weighted_total, b.weighted_total, 1e-6, "total");
  EXPECT_LT(b.max_violation, 1e-5);
  // Members of one slot class receive bitwise-identical allocations.
  for (std::size_t t = 0; t < instance.num_slots; ++t) {
    const ClassPartition part = build_slot_classes(
        instance, t, t > 0 ? b.allocations[t - 1] : Allocation{});
    for (std::size_t j = 0; j < instance.num_users; ++j) {
      const std::size_t rep = part.representative[part.class_of[j]];
      for (std::size_t i = 0; i < instance.num_clouds; ++i) {
        EXPECT_EQ(b.allocations[t].at(i, j), b.allocations[t].at(i, rep));
      }
    }
  }
}

TEST(AggregatedOnlineApprox, AllSingletonsDegradeBitwise) {
  // Perturb the demands so every user is its own class; the collapsed
  // problem is then the per-user problem bit for bit, and the whole
  // trajectory — warm starts included — must be bitwise identical.
  Instance instance = collapse_instance(9, /*num_users=*/12, /*num_slots=*/6);
  for (std::size_t j = 0; j < instance.num_users; ++j) {
    instance.demand[j] += static_cast<double>(j) * 1e-6;
  }
  algo::OnlineApprox per_user;
  algo::OnlineApproxOptions agg_options;
  agg_options.aggregate_users = true;
  algo::OnlineApprox aggregated(agg_options);

  const sim::SimulationResult a = Simulator::run(instance, per_user);
  const sim::SimulationResult b = Simulator::run(instance, aggregated);
  EXPECT_EQ(aggregated.last_num_classes(), instance.num_users);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (std::size_t t = 0; t < a.allocations.size(); ++t) {
    EXPECT_EQ(a.allocations[t].x, b.allocations[t].x) << "slot " << t;
  }
  EXPECT_EQ(a.weighted_total, b.weighted_total);
}

TEST(ClassScoring, MatchesPerUserSlotCostAndViolation) {
  const Instance instance = collapse_instance(21);
  const std::size_t kI = instance.num_clouds;
  const std::size_t t = 1;
  const ClassPartition part = build_slot_classes(instance, t, Allocation{});
  const std::size_t kC = part.num_classes;
  ASSERT_LT(kC, instance.num_users);

  // Class-constant per-member allocations: previously everything on cloud
  // 0, now spread evenly — exercises reconfiguration and both migration
  // directions.
  linalg::Vec member_prev(kI * kC, 0.0);
  linalg::Vec member_x(kI * kC, 0.0);
  for (std::size_t c = 0; c < kC; ++c) {
    const double lambda = instance.demand[part.representative[c]];
    member_prev[0 * kC + c] = lambda;
    for (std::size_t i = 0; i < kI; ++i) {
      member_x[i * kC + c] = lambda / static_cast<double>(kI);
    }
  }
  Allocation prev(kI, instance.num_users);
  Allocation cur(kI, instance.num_users);
  for (std::size_t j = 0; j < instance.num_users; ++j) {
    const std::size_t c = part.class_of[j];
    for (std::size_t i = 0; i < kI; ++i) {
      prev.at(i, j) = member_prev[i * kC + c];
      cur.at(i, j) = member_x[i * kC + c];
    }
  }

  const model::CostBreakdown by_class =
      class_slot_cost(instance, t, part, member_x, member_prev);
  const model::CostBreakdown by_user =
      model::slot_cost(instance, t, cur, &prev);
  expect_rel_near(by_class.operation, by_user.operation, 1e-9, "operation");
  expect_rel_near(by_class.service_quality, by_user.service_quality, 1e-9,
                  "service_quality");
  expect_rel_near(by_class.reconfiguration, by_user.reconfiguration, 1e-9,
                  "reconfiguration");
  expect_rel_near(by_class.migration, by_user.migration, 1e-9, "migration");

  EXPECT_NEAR(class_slot_violation(instance, part, member_x),
              model::allocation_violation(instance, cur), 1e-9);
  // Starve one class below its demand: both violation measures move
  // together.
  linalg::Vec short_x = member_x;
  for (std::size_t i = 0; i < kI; ++i) short_x[i * kC] *= 0.5;
  Allocation short_cur = cur;
  for (std::size_t j = 0; j < instance.num_users; ++j) {
    if (part.class_of[j] != 0) continue;
    for (std::size_t i = 0; i < kI; ++i) short_cur.at(i, j) *= 0.5;
  }
  const double class_violation =
      class_slot_violation(instance, part, short_x);
  EXPECT_GT(class_violation, 0.0);
  EXPECT_NEAR(class_violation,
              model::allocation_violation(instance, short_cur), 1e-9);
}

}  // namespace
}  // namespace eca::agg
