#include "algo/offline.h"

#include <algorithm>

#include "agg/aggregate.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "solve/ipm_lp.h"
#include "solve/pdhg_lp.h"

namespace eca::algo {
namespace {

// Variable layout: x_{i,j,t} at t*(I*J) + i*J + j, then u_{i,t} at
// u0 + t*I + i, then v_{i,j,t} at v0 + t*(I*J) + i*J + j.
struct Layout {
  std::size_t kI, kJ, kT;
  std::size_t u0, v0;
  [[nodiscard]] std::size_t x(std::size_t t, std::size_t i,
                              std::size_t j) const {
    return t * kI * kJ + i * kJ + j;
  }
  [[nodiscard]] std::size_t u(std::size_t t, std::size_t i) const {
    return u0 + t * kI + i;
  }
  [[nodiscard]] std::size_t v(std::size_t t, std::size_t i,
                              std::size_t j) const {
    return v0 + t * kI * kJ + i * kJ + j;
  }
};

}  // namespace

solve::LpProblem build_offline_lp(const model::Instance& instance) {
  const std::size_t kI = instance.num_clouds;
  const std::size_t kJ = instance.num_users;
  const std::size_t kT = instance.num_slots;
  const double ws = instance.weights.static_weight;
  const double wd = instance.weights.dynamic_weight;
  Layout layout{kI, kJ, kT, kT * kI * kJ, kT * kI * kJ + kT * kI};

  solve::LpProblem lp;
  // x variables: static cost; the last slot additionally gets the
  // telescoped out-migration refund -wd * b^out.
  for (std::size_t t = 0; t < kT; ++t) {
    for (std::size_t i = 0; i < kI; ++i) {
      for (std::size_t j = 0; j < kJ; ++j) {
        double cost = ws * (instance.operation_price[t][i] +
                            instance.service_coefficient(t, i, j));
        if (t + 1 == kT) {
          cost -= wd * instance.clouds[i].migration_out_price;
        }
        lp.add_variable(cost);
      }
    }
  }
  // u variables: reconfiguration price.
  for (std::size_t t = 0; t < kT; ++t) {
    for (std::size_t i = 0; i < kI; ++i) {
      lp.add_variable(wd * instance.clouds[i].reconfiguration_price);
    }
  }
  // v variables: combined migration price b_in + b_out.
  for (std::size_t t = 0; t < kT; ++t) {
    for (std::size_t i = 0; i < kI; ++i) {
      const double price = wd * instance.clouds[i].migration_price();
      for (std::size_t j = 0; j < kJ; ++j) lp.add_variable(price);
    }
  }

  lp.row_block_starts.reserve(kT);
  for (std::size_t t = 0; t < kT; ++t) {
    // The constraint rows form a time staircase: slot t's rows touch only
    // x_{·,·,t} and x_{·,·,t-1} (plus slot-t u/v). Recording each slot's
    // first row lets row-partitioned solvers align worker boundaries to
    // slots, so a worker's reads cover a contiguous at-most-two-slot
    // variable slice.
    lp.row_block_starts.push_back(lp.num_rows);
    // Demand.
    for (std::size_t j = 0; j < kJ; ++j) {
      const auto row = lp.add_row_geq(instance.demand[j]);
      for (std::size_t i = 0; i < kI; ++i) {
        lp.set_coefficient(row, layout.x(t, i, j), 1.0);
      }
    }
    // Capacity.
    for (std::size_t i = 0; i < kI; ++i) {
      const auto row = lp.add_row_leq(instance.clouds[i].capacity);
      for (std::size_t j = 0; j < kJ; ++j) {
        lp.set_coefficient(row, layout.x(t, i, j), 1.0);
      }
    }
    // Reconfiguration: u_{i,t} - Σ_j x_{i,j,t} + Σ_j x_{i,j,t-1} >= 0.
    for (std::size_t i = 0; i < kI; ++i) {
      const auto row = lp.add_row_geq(0.0);
      lp.set_coefficient(row, layout.u(t, i), 1.0);
      for (std::size_t j = 0; j < kJ; ++j) {
        lp.set_coefficient(row, layout.x(t, i, j), -1.0);
        if (t > 0) lp.set_coefficient(row, layout.x(t - 1, i, j), 1.0);
      }
    }
    // Migration: v_{i,j,t} - x_{i,j,t} + x_{i,j,t-1} >= 0.
    for (std::size_t i = 0; i < kI; ++i) {
      for (std::size_t j = 0; j < kJ; ++j) {
        const auto row = lp.add_row_geq(0.0);
        lp.set_coefficient(row, layout.v(t, i, j), 1.0);
        lp.set_coefficient(row, layout.x(t, i, j), -1.0);
        if (t > 0) lp.set_coefficient(row, layout.x(t - 1, i, j), 1.0);
      }
    }
  }
  return lp;
}

OfflineResult solve_offline(const model::Instance& instance,
                            const OfflineOptions& options) {
  const std::string instance_error = instance.validate();
  ECA_CHECK(instance_error.empty(), instance_error);
  // Horizon-class column aggregation: same time-staircase structure (and
  // row_block_starts hints) with J replaced by the class count, so both
  // solvers and their parallel row partitioning work unchanged.
  agg::ClassPartition part;
  if (options.aggregate_users) {
    part = agg::build_horizon_classes(instance);
  }
  const solve::LpProblem lp = options.aggregate_users
                                  ? agg::build_collapsed_offline_lp(instance,
                                                                    part)
                                  : build_offline_lp(instance);

  OfflineResult result;
  solve::LpSolution sol;
  // Auto solver choice: the IPM wins below a few hundred rows, PDHG above.
  // The IPM's bordered factor only saves work on the leading rows that no
  // column touches twice; in the horizon LP that is only slot 0's J demand
  // rows (each x_ij of slot 0 also meets a capacity row right after them),
  // so the factor stays about O(rows^3) and the row cutoff keeps its
  // dense-era value. Parallel PDHG shifts the crossover
  // downward — its per-iteration cost drops with the worker count while
  // the IPM's factor does not — so when LP threads are engaged the IPM
  // cutoff is halved. With
  // ECA_LP_THREADS unset (the default) this resolves to 1 and the choice is
  // unchanged.
  const std::size_t lp_workers =
      eca::ThreadPool::resolve_lp_threads(options.lp_threads);
  const std::size_t ipm_limit =
      lp_workers > 1 ? options.ipm_row_limit / 2 : options.ipm_row_limit;
  const bool use_ipm =
      options.solver == OfflineOptions::Solver::kInteriorPoint ||
      (options.solver == OfflineOptions::Solver::kAuto &&
       lp.num_rows <= ipm_limit);
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

  if (options.aggregate_users) {
    result.allocations = agg::expand_offline(instance, part, sol.x);
    return result;
  }
  const std::size_t kI = instance.num_clouds;
  const std::size_t kJ = instance.num_users;
  result.allocations.assign(instance.num_slots, model::Allocation(kI, kJ));
  for (std::size_t t = 0; t < instance.num_slots; ++t) {
    for (std::size_t i = 0; i < kI; ++i) {
      for (std::size_t j = 0; j < kJ; ++j) {
        result.allocations[t].at(i, j) =
            std::max(sol.x[t * kI * kJ + i * kJ + j], 0.0);
      }
    }
  }
  return result;
}

}  // namespace eca::algo
