#include "algo/offline.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "algo/baselines.h"
#include "algo/online_approx.h"
#include "sim/paper_examples.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace eca::algo {
namespace {

using model::Instance;
using sim::Simulator;

Instance small_instance(std::uint64_t seed, std::size_t users = 6,
                        std::size_t slots = 5) {
  sim::ScenarioOptions options;
  options.num_users = users;
  options.num_slots = slots;
  options.seed = seed;
  return sim::make_random_walk_instance(options);
}

TEST(Offline, SolvesFigure1aToThePapersOptimum) {
  const Instance instance = sim::figure1a_instance();
  const OfflineResult result = solve_offline(instance);
  ASSERT_EQ(result.status, solve::SolveStatus::kOptimal);
  const auto scored =
      Simulator::score(instance, "offline-opt", result.allocations);
  EXPECT_NEAR(scored.weighted_total,
              sim::kFigure1aOptimalCost + sim::figure1_initial_dynamic_cost(),
              1e-4);
  EXPECT_LT(scored.max_violation, 1e-6);
}

TEST(Offline, SolvesFigure1bBeyondThePapersNarrative) {
  // With slot-1 provisioning costed, pre-provisioning at B beats the
  // paper's migrate-at-slot-2 strategy by 0.1 (see paper_examples.h).
  const Instance instance = sim::figure1b_instance();
  const OfflineResult result = solve_offline(instance);
  ASSERT_EQ(result.status, solve::SolveStatus::kOptimal);
  const auto scored =
      Simulator::score(instance, "offline-opt", result.allocations);
  EXPECT_NEAR(
      scored.weighted_total,
      sim::kFigure1bTrueOptimalCost + sim::figure1_initial_dynamic_cost(),
      1e-4);
}

TEST(Offline, IpmAndPdhgAgree) {
  const Instance instance = small_instance(21);
  OfflineOptions ipm_options;
  ipm_options.solver = OfflineOptions::Solver::kInteriorPoint;
  OfflineOptions pdhg_options;
  pdhg_options.solver = OfflineOptions::Solver::kPdhg;
  const OfflineResult via_ipm = solve_offline(instance, ipm_options);
  const OfflineResult via_pdhg = solve_offline(instance, pdhg_options);
  ASSERT_EQ(via_ipm.status, solve::SolveStatus::kOptimal);
  ASSERT_EQ(via_pdhg.status, solve::SolveStatus::kOptimal);
  // PDHG's 5e-4 gap tolerance does not bound its objective error (0.56% on
  // one Fig-2 instance); on this small instance it lands within 0.2%.
  EXPECT_NEAR(via_pdhg.objective_value, via_ipm.objective_value,
              2e-3 * (1.0 + std::abs(via_ipm.objective_value)));
}

TEST(Offline, ParallelPdhgMatchesSerialObjective) {
  // The partitioned PDHG solve is bit-identical to serial by contract
  // (tests/solve/pdhg_parallel_test.cc); through the offline plumbing the
  // objective must therefore agree far inside pdhg_tolerance — this guards
  // the options wiring (lp_threads/lp_oversubscribe forwarding, block
  // hints) end to end. Oversubscription + a floor of 1 nnz engage the pool
  // even on 1-CPU CI machines.
  const Instance instance = small_instance(61, 8, 6);
  OfflineOptions serial_options;
  serial_options.solver = OfflineOptions::Solver::kPdhg;
  serial_options.lp_threads = 1;
  OfflineOptions parallel_options = serial_options;
  parallel_options.lp_threads = 4;
  parallel_options.lp_oversubscribe = true;
  parallel_options.lp_min_nnz_per_thread = 1;
  const OfflineResult serial = solve_offline(instance, serial_options);
  const OfflineResult parallel = solve_offline(instance, parallel_options);
  ASSERT_EQ(serial.status, solve::SolveStatus::kOptimal);
  ASSERT_EQ(parallel.status, solve::SolveStatus::kOptimal);
  EXPECT_EQ(parallel.iterations, serial.iterations);
  EXPECT_NEAR(parallel.objective_value, serial.objective_value,
              serial_options.pdhg_tolerance *
                  (1.0 + std::abs(serial.objective_value)));
}

// Rows are cloud-major with the demand rows last: row_block_starts marks
// the I cloud blocks and then the demand block, each cloud block's rows
// touch only that cloud's x/u/v columns, and the demand rows come last.
TEST(OfflineLp, RecordsCloudMajorRowBlocks) {
  const Instance instance = small_instance(71, 4, 3);
  const solve::LpProblem lp =
      build_horizon_lp(instance, 0, instance.num_slots, {});
  const std::size_t kI = instance.num_clouds;
  const std::size_t kJ = instance.num_users;
  const std::size_t kT = instance.num_slots;
  const std::size_t rows_per_cloud = kT * (kJ + 2);
  ASSERT_EQ(lp.row_block_starts.size(), kI + 1);
  for (std::size_t i = 0; i <= kI; ++i) {
    EXPECT_EQ(lp.row_block_starts[i], i * rows_per_cloud) << "block " << i;
  }
  EXPECT_EQ(lp.num_rows - lp.row_block_starts[kI], kT * kJ);
  EXPECT_TRUE(lp.validate().empty());

  // The cloud of a column: x_{i,j,t} at t·I·J + i·J + j, then u_{i,t} at
  // u0 + t·I + i, then v_{i,j,t} at v0 + t·I·J + i·J + j.
  const std::size_t u0 = kT * kI * kJ;
  const std::size_t v0 = u0 + kT * kI;
  const auto cloud_of = [&](std::size_t col) {
    if (col < u0) return (col % (kI * kJ)) / kJ;
    if (col < v0) return (col - u0) % kI;
    return ((col - v0) % (kI * kJ)) / kJ;
  };
  std::vector<std::size_t> demand_entries(kT * kJ, 0);
  for (const auto& e : lp.elements) {
    if (e.row < lp.row_block_starts[kI]) {
      EXPECT_EQ(cloud_of(e.col), e.row / rows_per_cloud)
          << "row " << e.row << " col " << e.col;
    } else {
      // Demand row (t, j) sums x_{i,j,t} over every cloud.
      const std::size_t d = e.row - lp.row_block_starts[kI];
      EXPECT_LT(e.col, u0);
      EXPECT_EQ(e.col / (kI * kJ), d / kJ);
      EXPECT_EQ(e.col % kJ, d % kJ);
      EXPECT_EQ(lp.row_lower[e.row], instance.demand[d % kJ]);
      ++demand_entries[d];
    }
  }
  for (const std::size_t n : demand_entries) EXPECT_EQ(n, kI);
}

// Fig-2 table instance rep 21 (hour 3, scenario seed 3001, J=8, T=8, power
// demand).
Instance figure2_rep21_instance() {
  sim::ScenarioOptions options;
  options.num_users = 8;
  options.num_slots = 8;
  options.workload.distribution = workload::Distribution::kPower;
  options.seed = 3001;
  return sim::make_rome_taxi_instance(options, 3);
}

// FNV-1a over the little-endian bytes of `bits`.
void fnv1a(std::uint64_t& hash, std::uint64_t bits) {
  for (int k = 0; k < 8; ++k) {
    hash ^= (bits >> (8 * k)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
}

// Every bit of an LP: shape, costs, variable and row bounds, each
// coefficient in emission order, and the row blocks.
std::uint64_t lp_fingerprint(const solve::LpProblem& lp) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  fnv1a(hash, lp.num_vars);
  fnv1a(hash, lp.num_rows);
  for (const linalg::Vec* v : {&lp.objective, &lp.var_lower, &lp.var_upper,
                               &lp.row_lower, &lp.row_upper}) {
    for (const double d : *v) fnv1a(hash, std::bit_cast<std::uint64_t>(d));
  }
  for (const auto& e : lp.elements) {
    fnv1a(hash, e.row);
    fnv1a(hash, e.col);
    fnv1a(hash, std::bit_cast<std::uint64_t>(e.value));
  }
  fnv1a(hash, lp.row_block_starts.size());
  for (const std::size_t r : lp.row_block_starts) fnv1a(hash, r);
  return hash;
}

// The offline LP that every Fig-2 denominator solves, pinned bit for bit:
// a zero right-hand side must stay +0.0, and a reordered row or coefficient
// changes the IPM's roundoff and with it every offline cost.
TEST(OfflineLp, Figure2Rep21IsPinnedBitwise) {
  const Instance instance = figure2_rep21_instance();
  const solve::LpProblem lp =
      build_horizon_lp(instance, 0, instance.num_slots, {});
  EXPECT_EQ(lp_fingerprint(lp), 0xcb4541747aeec20eULL);
}

// Rep 21 is where a PDHG denominator at 5e-4 landed 0.56% above the
// optimum with 1.2e-3 violation: the default path now solves it exactly.
TEST(Offline, Figure2Rep21SolvesToTheExactOptimum) {
  const Instance instance = figure2_rep21_instance();
  const OfflineResult result = solve_offline(instance);
  ASSERT_EQ(result.status, solve::SolveStatus::kOptimal);
  EXPECT_NEAR(result.objective_value, 90.529064910, 1e-8 * 90.529064910);
  const auto scored =
      Simulator::score(instance, "offline-opt", result.allocations);
  EXPECT_LE(scored.max_violation, 1e-9);
}

class OfflineLowerBound : public ::testing::TestWithParam<int> {};

TEST_P(OfflineLowerBound, NoOnlineAlgorithmBeatsOffline) {
  const Instance instance =
      small_instance(static_cast<std::uint64_t>(GetParam()));
  const OfflineResult offline = solve_offline(instance);
  ASSERT_EQ(offline.status, solve::SolveStatus::kOptimal);
  const double opt =
      Simulator::score(instance, "offline", offline.allocations)
          .weighted_total;
  for (const auto& factory : sim::paper_algorithms(true)) {
    auto algorithm = factory.make();
    const double cost =
        Simulator::run(instance, *algorithm).weighted_total;
    // The offline optimum is exact to the IPM tolerance.
    EXPECT_GE(cost, opt * (1.0 - 1e-8)) << factory.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OfflineLowerBound, ::testing::Range(0, 5));

TEST(Offline, AllocationsAreFeasible) {
  const Instance instance = small_instance(31, 8, 6);
  const OfflineResult offline = solve_offline(instance);
  ASSERT_EQ(offline.status, solve::SolveStatus::kOptimal);
  // The auto choice solves this LP exactly: feasible to the IPM tolerance.
  EXPECT_LT(model::max_violation(instance, offline.allocations), 1e-8);
}

TEST(Offline, ObjectiveMatchesCostModel) {
  // The LP objective (with aux variables at their optimal values) must
  // equal the cost model's evaluation of the extracted allocations.
  const Instance instance = small_instance(41);
  const OfflineResult offline = solve_offline(instance);
  ASSERT_EQ(offline.status, solve::SolveStatus::kOptimal);
  const double scored =
      Simulator::score(instance, "offline", offline.allocations)
          .weighted_total;
  EXPECT_NEAR(offline.objective_value, scored,
              2e-3 * (1.0 + std::abs(scored)));
}

TEST(OfflineLp, HasExpectedShape) {
  const Instance instance = small_instance(51, 4, 3);
  const solve::LpProblem lp =
      build_horizon_lp(instance, 0, instance.num_slots, {});
  const std::size_t kI = instance.num_clouds;
  const std::size_t kJ = instance.num_users;
  const std::size_t kT = instance.num_slots;
  EXPECT_EQ(lp.num_vars, kT * kI * kJ + kT * kI + kT * kI * kJ);
  EXPECT_EQ(lp.num_rows, kT * (kJ + kI + kI + kI * kJ));
  EXPECT_TRUE(lp.validate().empty());
}

}  // namespace
}  // namespace eca::algo
