#include "solve/ipm_lp.h"

#include <cmath>

#include <gtest/gtest.h>

#include "solve/kkt.h"
#include "solve/lp_problem.h"
#include "lp_test_util.h"

namespace eca::solve {
namespace {

using testing::brute_force_optimum;
using testing::make_random_box_lp;

TEST(IpmLp, SolvesTrivialSingleVariable) {
  LpProblem lp;
  lp.add_variable(1.0, 0.0, kInf);
  const auto row = lp.add_row_geq(3.0);
  lp.set_coefficient(row, 0, 1.0);
  const LpSolution sol = InteriorPointLp().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-6);
  EXPECT_NEAR(sol.objective_value, 3.0, 1e-6);
}

TEST(IpmLp, RespectsUpperBounds) {
  // min -x1 - x2 s.t. x1 + x2 >= 1, x1 <= 0.4, x2 <= 0.9.
  LpProblem lp;
  lp.add_variable(-1.0, 0.0, 0.4);
  lp.add_variable(-1.0, 0.0, 0.9);
  const auto row = lp.add_row_geq(1.0);
  lp.set_coefficient(row, 0, 1.0);
  lp.set_coefficient(row, 1, 1.0);
  const LpSolution sol = InteriorPointLp().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 0.4, 1e-6);
  EXPECT_NEAR(sol.x[1], 0.9, 1e-6);
  EXPECT_NEAR(sol.objective_value, -1.3, 1e-6);
}

TEST(IpmLp, TwoVariableDiet) {
  // Classic: min 2x + 3y s.t. x + y >= 4, x + 2y >= 6, x, y >= 0.
  LpProblem lp;
  lp.add_variable(2.0);
  lp.add_variable(3.0);
  auto r1 = lp.add_row_geq(4.0);
  lp.set_coefficient(r1, 0, 1.0);
  lp.set_coefficient(r1, 1, 1.0);
  auto r2 = lp.add_row_geq(6.0);
  lp.set_coefficient(r2, 0, 1.0);
  lp.set_coefficient(r2, 1, 2.0);
  const LpSolution sol = InteriorPointLp().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  // Optimum at intersection (2, 2): objective 10.
  EXPECT_NEAR(sol.objective_value, 10.0, 1e-6);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-5);
  EXPECT_NEAR(sol.x[1], 2.0, 1e-5);
}

TEST(IpmLp, HandlesLeqRows) {
  // max x1 + 2 x2 (as min of negative) s.t. x1 + x2 <= 3, x2 <= 2.
  LpProblem lp;
  lp.add_variable(-1.0);
  lp.add_variable(-2.0);
  auto r1 = lp.add_row_leq(3.0);
  lp.set_coefficient(r1, 0, 1.0);
  lp.set_coefficient(r1, 1, 1.0);
  auto r2 = lp.add_row_leq(2.0);
  lp.set_coefficient(r2, 1, 1.0);
  const LpSolution sol = InteriorPointLp().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective_value, -5.0, 1e-6);  // x = (1, 2)
}

TEST(IpmLp, DetectsInfeasibleConstantRow) {
  LpProblem lp;
  lp.add_variable(1.0, 2.0, 2.0);  // fixed at 2
  auto row = lp.add_row_geq(5.0);
  lp.set_coefficient(row, 0, 1.0);
  const LpSolution sol = InteriorPointLp().solve(lp);
  EXPECT_EQ(sol.status, SolveStatus::kPrimalInfeasible);
}

TEST(IpmLp, DetectsInfeasibleSystem) {
  // x >= 4 and x <= 1.
  LpProblem lp;
  lp.add_variable(1.0, 0.0, kInf);
  auto r1 = lp.add_row_geq(4.0);
  lp.set_coefficient(r1, 0, 1.0);
  auto r2 = lp.add_row_leq(1.0);
  lp.set_coefficient(r2, 0, 1.0);
  const LpSolution sol = InteriorPointLp().solve(lp);
  EXPECT_NE(sol.status, SolveStatus::kOptimal);
}

TEST(IpmLp, DetectsUnbounded) {
  // min -x, x >= 0, no upper bound.
  LpProblem lp;
  lp.add_variable(-1.0);
  auto r1 = lp.add_row_geq(0.0);
  lp.set_coefficient(r1, 0, 1.0);
  const LpSolution sol = InteriorPointLp().solve(lp);
  EXPECT_NE(sol.status, SolveStatus::kOptimal);
}

TEST(IpmLp, FixedVariablesAreEliminated) {
  // x0 fixed at 1.5 participates in the row; x1 adjusts.
  LpProblem lp;
  lp.add_variable(1.0, 1.5, 1.5);
  lp.add_variable(1.0, 0.0, kInf);
  auto row = lp.add_row_geq(4.0);
  lp.set_coefficient(row, 0, 1.0);
  lp.set_coefficient(row, 1, 1.0);
  const LpSolution sol = InteriorPointLp().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 1.5, 1e-9);
  EXPECT_NEAR(sol.x[1], 2.5, 1e-6);
}

TEST(IpmLp, NoRowsPicksCheaperBound) {
  LpProblem lp;
  lp.add_variable(2.0, 1.0, 5.0);
  lp.add_variable(-3.0, 0.0, 4.0);
  const LpSolution sol = InteriorPointLp().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 4.0, 1e-9);
}

class IpmRandomLp : public ::testing::TestWithParam<int> {};

TEST_P(IpmRandomLp, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const std::size_t n = 2 + rng.uniform_index(3);      // 2..4 vars
  const std::size_t m_geq = 1 + rng.uniform_index(2);  // 1..2 rows
  const std::size_t m_leq = rng.uniform_index(2);      // 0..1 rows
  const LpProblem lp = make_random_box_lp(rng, n, m_geq, m_leq);
  const LpSolution sol = InteriorPointLp().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal) << "seed " << GetParam();
  const auto brute = brute_force_optimum(lp);
  ASSERT_TRUE(brute.has_value());
  EXPECT_NEAR(sol.objective_value, *brute, 1e-5 * (1.0 + std::abs(*brute)));
  EXPECT_LT(max_constraint_violation(lp, sol.x), 1e-6);
}

TEST_P(IpmRandomLp, KktConditionsHold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const std::size_t n = 3 + rng.uniform_index(6);  // 3..8 vars
  const LpProblem lp = make_random_box_lp(rng, n, 2, 2);
  const LpSolution sol = InteriorPointLp().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  const KktReport kkt = check_lp_kkt(lp, sol);
  EXPECT_LT(kkt.primal_infeasibility, 1e-6);
  EXPECT_LT(kkt.dual_infeasibility, 1e-6);
  EXPECT_LT(kkt.stationarity, 1e-5);
  EXPECT_LT(kkt.complementarity, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IpmRandomLp, ::testing::Range(0, 40));

// --- Workspace reuse ---------------------------------------------------------

void expect_bitwise_equal(const LpSolution& a, const LpSolution& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t j = 0; j < a.x.size(); ++j) {
    EXPECT_EQ(a.x[j], b.x[j]) << "x[" << j << "]";
  }
  ASSERT_EQ(a.row_duals.size(), b.row_duals.size());
  for (std::size_t r = 0; r < a.row_duals.size(); ++r) {
    EXPECT_EQ(a.row_duals[r], b.row_duals[r]) << "y[" << r << "]";
  }
  EXPECT_EQ(a.objective_value, b.objective_value);
}

TEST(IpmWorkspace, ReusedWorkspaceMatchesFreshSolveBitwise) {
  // One workspace carried across LPs of varying shape: buffer reuse must not
  // change a single bit relative to a fresh per-solve workspace.
  Rng rng(20240807);
  InteriorPointLp solver;
  IpmWorkspace ws;
  for (int round = 0; round < 12; ++round) {
    const std::size_t n = 3 + rng.uniform_index(8);
    const std::size_t m_geq = 1 + rng.uniform_index(3);
    const std::size_t m_leq = rng.uniform_index(3);
    const LpProblem lp = make_random_box_lp(rng, n, m_geq, m_leq);
    const LpSolution fresh = solver.solve(lp);
    const LpSolution reused = solver.solve(lp, ws);
    expect_bitwise_equal(fresh, reused);
  }
}

TEST(IpmWorkspace, SolveIntoReusesSolutionBuffers) {
  Rng rng(17);
  const LpProblem lp = make_random_box_lp(rng, 6, 3, 2);
  InteriorPointLp solver;
  IpmWorkspace ws;
  const LpSolution fresh = solver.solve(lp, ws);
  LpSolution reused;
  reused.x.assign(99, -1.0);  // stale content from a previous, larger solve
  reused.row_duals.assign(99, -1.0);
  solver.solve_into(lp, ws, reused);
  expect_bitwise_equal(fresh, reused);
}


}  // namespace
}  // namespace eca::solve
