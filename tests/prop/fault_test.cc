// Deterministic fault injection (common/fault.h): every documented
// fallback path in the solve stack is reachable on demand, fires exactly
// once under a single-shot plan, flips its metric counter exactly once,
// and recovers to the result the never-faulted path would have produced.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "algo/baselines.h"
#include "algo/online_approx.h"
#include "algo/slot_lp.h"
#include "check/scenario.h"
#include "common/fault.h"
#include "model/instance.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "solve/ipm_lp.h"
#include "solve/pdhg_lp.h"
#include "solve/regularized_solver.h"

namespace eca {
namespace {

std::uint64_t counter_total(const char* name) {
  return obs::MetricsRegistry::global().snapshot().counter(name);
}

bool bitwise_equal(const linalg::Vec& a, const linalg::Vec& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::bit_cast<std::uint64_t>(a[k]) !=
        std::bit_cast<std::uint64_t>(b[k])) {
      return false;
    }
  }
  return true;
}

// Fresh metrics + no fault plan around every test.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::global().reset_values();
    install_fault_plan(nullptr);
  }
  void TearDown() override {
    install_fault_plan(nullptr);
    obs::MetricsRegistry::global().reset_values();
  }
};

model::Instance default_instance() {
  check::Scenario scenario;  // I=3, J=4, T=3, capacity rows on
  scenario.seed = 2026;
  return check::materialize(scenario);
}

TEST_F(FaultTest, SiteNamesAreStable) {
  EXPECT_STREQ(fault_site_name(FaultSite::kSchurSingular), "schur_singular");
  EXPECT_STREQ(fault_site_name(FaultSite::kNewtonNan), "newton_nan");
  EXPECT_STREQ(fault_site_name(FaultSite::kIterCap), "iter_cap");
  EXPECT_STREQ(fault_site_name(FaultSite::kWarmReject), "warm_reject");
  EXPECT_STREQ(fault_site_name(FaultSite::kIpmFail), "ipm_fail");
  EXPECT_STREQ(fault_site_name(FaultSite::kPdhgFail), "pdhg_fail");
  EXPECT_STREQ(fault_site_name(FaultSite::kLpFail), "lp_fail");
}

TEST_F(FaultTest, MalformedPlanExitsWithCode2) {
  EXPECT_EXIT(install_fault_plan("bogus_site"),
              ::testing::ExitedWithCode(2), "ECA_FAULT");
  EXPECT_EXIT(install_fault_plan("iter_cap@0"),
              ::testing::ExitedWithCode(2), "ECA_FAULT");
  EXPECT_EXIT(install_fault_plan("iter_cap@x"),
              ::testing::ExitedWithCode(2), "ECA_FAULT");
  EXPECT_EXIT(install_fault_plan("iter_cap@1,iter_cap@2"),
              ::testing::ExitedWithCode(2), "scheduled twice");
  EXPECT_EXIT(install_fault_plan("lp_fail,"),
              ::testing::ExitedWithCode(2), "empty term");
}

// A single-shot plan fires on exactly one occurrence: the first cold IPM
// solve is poisoned, every later solve of the same LP is untouched.
TEST_F(FaultTest, SingleShotPlanFiresExactlyOnce) {
  const model::Instance instance = default_instance();
  const algo::StaticSlotLp built =
      algo::build_static_slot_lp(instance, 0, true, true);
  solve::InteriorPointLp ipm;
  install_fault_plan("ipm_fail@1");
  EXPECT_NE(ipm.solve(built.lp).status, solve::SolveStatus::kOptimal);
  EXPECT_EQ(ipm.solve(built.lp).status, solve::SolveStatus::kOptimal);
  EXPECT_EQ(ipm.solve(built.lp).status, solve::SolveStatus::kOptimal);
  EXPECT_EQ(fault_fired_count(FaultSite::kIpmFail), 1u);
}

// iter_cap@1 cuts the Newton loop to one iteration: the solve reports a
// non-optimal status and drops the workspace's warm-start duals, so the
// next slot cold-starts instead of continuing from an uncertified point.
// The same solve without the plan is optimal.
TEST_F(FaultTest, IterCapReportsNonOptimalAndDropsWarmState) {
  const model::Instance instance = default_instance();
  algo::OnlineApproxOptions options;
  options.solver.warm_start = false;
  algo::OnlineApprox algorithm(options);
  const model::Allocation prev(instance.num_clouds, instance.num_users);
  const solve::RegularizedProblem problem =
      algorithm.build_subproblem(instance, 0, prev);
  solve::RegularizedSolver solver(options.solver);
  solve::NewtonWorkspace ws;
  ASSERT_EQ(solver.solve(problem, ws).status, solve::SolveStatus::kOptimal);
  ASSERT_TRUE(ws.warm_valid);

  install_fault_plan("iter_cap@1");
  const solve::RegularizedSolution faulted = solver.solve(problem, ws);
  EXPECT_EQ(fault_fired_count(FaultSite::kIterCap), 1u);
  EXPECT_NE(faulted.status, solve::SolveStatus::kOptimal);
  EXPECT_FALSE(ws.warm_valid);

  install_fault_plan(nullptr);
  solve::NewtonWorkspace fresh;
  EXPECT_EQ(solver.solve(problem, fresh).status,
            solve::SolveStatus::kOptimal);
}

// A surprise singular Schur factorization triggers the best-iterate
// bailout instead of a crash; the same solve without the plan is optimal.
TEST_F(FaultTest, SchurSingularBailsOutToBestIterate) {
  const model::Instance instance = default_instance();
  algo::OnlineApproxOptions options;
  options.solver.warm_start = false;
  algo::OnlineApprox algorithm(options);
  const model::Allocation prev(instance.num_clouds, instance.num_users);
  const solve::RegularizedProblem problem =
      algorithm.build_subproblem(instance, 0, prev);
  solve::RegularizedSolver solver(options.solver);

  install_fault_plan("schur_singular@1");
  solve::NewtonWorkspace ws;
  const solve::RegularizedSolution faulted = solver.solve(problem, ws);
  EXPECT_EQ(fault_fired_count(FaultSite::kSchurSingular), 1u);
  EXPECT_NE(faulted.status, solve::SolveStatus::kOptimal);
  for (const double v : faulted.x) EXPECT_TRUE(std::isfinite(v));

  install_fault_plan(nullptr);
  solve::NewtonWorkspace fresh;
  EXPECT_EQ(solver.solve(problem, fresh).status,
            solve::SolveStatus::kOptimal);
}

// A poisoned Newton direction is caught by the non-finite guard: the
// returned best iterate stays finite.
TEST_F(FaultTest, NewtonNanIsCaughtByGuard) {
  const model::Instance instance = default_instance();
  algo::OnlineApproxOptions options;
  options.solver.warm_start = false;
  algo::OnlineApprox algorithm(options);
  const model::Allocation prev(instance.num_clouds, instance.num_users);
  const solve::RegularizedProblem problem =
      algorithm.build_subproblem(instance, 0, prev);
  solve::RegularizedSolver solver(options.solver);

  install_fault_plan("newton_nan@1");
  solve::NewtonWorkspace ws;
  const solve::RegularizedSolution faulted = solver.solve(problem, ws);
  EXPECT_EQ(fault_fired_count(FaultSite::kNewtonNan), 1u);
  for (const double v : faulted.x) EXPECT_TRUE(std::isfinite(v));
  EXPECT_TRUE(std::isfinite(faulted.objective_value));

  install_fault_plan(nullptr);
  solve::NewtonWorkspace fresh;
  EXPECT_EQ(solver.solve(problem, fresh).status,
            solve::SolveStatus::kOptimal);
}

// A rejected (usable) warm point forces the cold start, which is
// bit-identical to a warm_start=false solve in a fresh workspace.
TEST_F(FaultTest, WarmRejectReproducesColdSolveBitwise) {
  const model::Instance instance = default_instance();
  algo::OnlineApproxOptions options;
  options.solver.warm_start = true;
  algo::OnlineApprox algorithm(options);
  solve::RegularizedSolver solver(options.solver);
  solve::NewtonWorkspace ws;

  model::Allocation prev(instance.num_clouds, instance.num_users);
  const solve::RegularizedProblem slot0 =
      algorithm.build_subproblem(instance, 0, prev);
  const solve::RegularizedSolution first = solver.solve(slot0, ws);
  ASSERT_EQ(first.status, solve::SolveStatus::kOptimal);
  prev.x = first.x;
  const solve::RegularizedProblem slot1 =
      algorithm.build_subproblem(instance, 1, prev);

  install_fault_plan("warm_reject@1");
  const solve::RegularizedSolution rejected = solver.solve(slot1, ws);
  EXPECT_EQ(fault_fired_count(FaultSite::kWarmReject), 1u);
  EXPECT_FALSE(rejected.warm_started);
  ASSERT_EQ(rejected.status, solve::SolveStatus::kOptimal);

  install_fault_plan(nullptr);
  solve::RegularizedOptions cold_options = options.solver;
  cold_options.warm_start = false;
  solve::NewtonWorkspace fresh;
  const solve::RegularizedSolution cold =
      solve::RegularizedSolver(cold_options).solve(slot1, fresh);
  ASSERT_EQ(cold.status, solve::SolveStatus::kOptimal);
  EXPECT_TRUE(bitwise_equal(rejected.x, cold.x));
}

// A failed baseline LP check triggers the rebuild-and-resolve recovery: baseline.lp_failures flips exactly once and the whole run is
// bit-identical to the never-faulted run.
TEST_F(FaultTest, BaselineLpFailureRecoversBitIdentically) {
  const model::Instance instance = default_instance();
  algo::StatOpt reference_algorithm;
  const sim::SimulationResult reference =
      sim::Simulator::run(instance, reference_algorithm);

  obs::MetricsRegistry::global().reset_values();
  install_fault_plan("lp_fail@1");
  algo::StatOpt faulted_algorithm;
  const sim::SimulationResult faulted =
      sim::Simulator::run(instance, faulted_algorithm);
  EXPECT_EQ(fault_fired_count(FaultSite::kLpFail), 1u);
  EXPECT_EQ(counter_total("baseline.lp_failures"), 1u);

  ASSERT_EQ(faulted.allocations.size(), reference.allocations.size());
  for (std::size_t t = 0; t < reference.allocations.size(); ++t) {
    EXPECT_TRUE(
        bitwise_equal(faulted.allocations[t].x, reference.allocations[t].x))
        << "slot " << t;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(faulted.weighted_total),
            std::bit_cast<std::uint64_t>(reference.weighted_total));
}

// The PDHG site degrades one solve to kIterationLimit; the next solve of
// the same LP is clean.
TEST_F(FaultTest, PdhgFaultReportsIterationLimitOnce) {
  const model::Instance instance = default_instance();
  const algo::StaticSlotLp built =
      algo::build_static_slot_lp(instance, 0, true, true);
  solve::PdhgOptions options;
  options.tolerance = 1e-6;
  const solve::PdhgLp pdhg(options);

  install_fault_plan("pdhg_fail@1");
  EXPECT_EQ(pdhg.solve(built.lp).status,
            solve::SolveStatus::kIterationLimit);
  EXPECT_EQ(fault_fired_count(FaultSite::kPdhgFail), 1u);
  EXPECT_EQ(pdhg.solve(built.lp).status, solve::SolveStatus::kOptimal);
  EXPECT_EQ(fault_fired_count(FaultSite::kPdhgFail), 1u);
}

}  // namespace
}  // namespace eca
