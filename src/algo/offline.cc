#include "algo/offline.h"

#include <algorithm>

#include "agg/aggregate.h"
#include "common/check.h"
#include "solve/ipm_lp.h"
#include "solve/pdhg_lp.h"

namespace eca::algo {
namespace {

// Measured crossover of the auto solver choice, in multiply-adds of one
// normal-equations factor (solve::normal_factor_work). Up to it (the
// largest measured shape, J=T=24) the IPM's exact solves took less total
// time than PDHG at 5e-4 on the measured Rome-taxi instances, and its
// slowest solve was faster than PDHG's slowest; PDHG needs a fraction of
// the IPM's envelope memory (DESIGN.md §10 has the table).
constexpr double kIpmFactorWorkCrossover = 1.7e9;

}  // namespace

solve::LpProblem build_offline_lp(const model::Instance& instance) {
  return agg::build_collapsed_offline_lp(
      instance, agg::singleton_classes(instance.num_users));
}

OfflineResult solve_offline(const model::Instance& instance,
                            const OfflineOptions& options) {
  const std::string instance_error = instance.validate();
  ECA_CHECK(instance_error.empty(), instance_error);
  // Horizon-class column aggregation: the same LP with J replaced by the
  // class count. Singleton classes give the per-user LP bitwise.
  const agg::ClassPartition part =
      options.aggregate_users ? agg::build_horizon_classes(instance)
                              : agg::singleton_classes(instance.num_users);
  const solve::LpProblem lp = agg::build_collapsed_offline_lp(instance, part);

  OfflineResult result;
  solve::LpSolution sol;
  // Auto solver choice: the exact IPM whenever its envelope factor is
  // cheap enough, PDHG above the crossover.
  const bool use_ipm =
      options.solver == OfflineOptions::Solver::kInteriorPoint ||
      (options.solver == OfflineOptions::Solver::kAuto &&
       solve::normal_factor_work(lp, kIpmFactorWorkCrossover) <=
           kIpmFactorWorkCrossover);
  if (use_ipm) {
    solve::IpmOptions ipm;
    ipm.verbose = options.verbose;
    sol = solve::InteriorPointLp(ipm).solve(lp);
  } else {
    solve::PdhgOptions pdhg;
    pdhg.tolerance = options.pdhg_tolerance;
    pdhg.max_iterations = options.pdhg_max_iterations;
    // The offline optimum serves as a cost denominator: the primal
    // objective is what matters, so don't wait for PDHG's slowly-converging
    // dual certificate.
    pdhg.gate_on_dual_residual = false;
    pdhg.lp_threads = options.lp_threads;
    pdhg.lp_oversubscribe = options.lp_oversubscribe;
    pdhg.min_nnz_per_thread = options.lp_min_nnz_per_thread;
    pdhg.verbose = options.verbose;
    sol = solve::PdhgLp(pdhg).solve(lp);
    // Extreme weight ratios (the Figure-4 mu sweep spans six orders of
    // magnitude) can push a first-order method past its iteration budget.
    // The best iterate it returns is usually still a fine denominator —
    // accept it when its residuals are within a small factor of the target
    // rather than failing the whole experiment.
    if (sol.status == solve::SolveStatus::kIterationLimit &&
        std::max(sol.primal_residual, sol.gap) <=
            20.0 * options.pdhg_tolerance) {
      sol.status = solve::SolveStatus::kOptimal;
    }
  }
  result.status = sol.status;
  result.iterations = sol.iterations;
  result.objective_value = sol.objective_value;
  if (sol.status != solve::SolveStatus::kOptimal) return result;

  result.allocations = agg::expand_offline(instance, part, sol.x);
  return result;
}

}  // namespace eca::algo
