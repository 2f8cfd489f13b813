#include "algo/offline.h"

#include <algorithm>

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

// PDHG's iteration budget above the crossover.
constexpr int kPdhgMaxIterations = 400000;

}  // namespace

solve::LpProblem build_horizon_lp(const model::Instance& instance,
                                  std::size_t t0, std::size_t window,
                                  const model::Allocation& previous) {
  ECA_CHECK(t0 < instance.num_slots && window >= 1);
  const std::size_t kI = instance.num_clouds;
  const std::size_t kJ = instance.num_users;
  const std::size_t kW = std::min(window, instance.num_slots - t0);
  const bool anchored = !previous.x.empty();
  ECA_CHECK(!anchored ||
                (previous.num_clouds == kI && previous.num_users == kJ),
            "previous allocation has the wrong shape");
  const double ws = instance.weights.static_weight;
  const double wd = instance.weights.dynamic_weight;
  const std::size_t u0 = kW * kI * kJ;
  const std::size_t v0 = u0 + kW * kI;
  const auto xv = [&](std::size_t w, std::size_t i, std::size_t j) {
    return w * kI * kJ + i * kJ + j;
  };
  // Anchor of the first window slot; `0.0 - a` keeps a zero anchor's row
  // bound at +0.0, the bound of every unanchored row.
  const model::Vec anchor_totals =
      anchored ? previous.cloud_totals() : model::Vec(kI, 0.0);
  const auto anchor = [&](std::size_t w, std::size_t i, std::size_t j) {
    return w == 0 && anchored ? previous.at(i, j) : 0.0;
  };

  solve::LpProblem lp;
  // x variables: per-unit static cost; the last window slot gets the
  // telescoped out-migration refund.
  for (std::size_t w = 0; w < kW; ++w) {
    const std::size_t t = t0 + w;
    for (std::size_t i = 0; i < kI; ++i) {
      for (std::size_t j = 0; j < kJ; ++j) {
        double cost = ws * (instance.operation_price[t][i] +
                            instance.service_coefficient(t, i, j));
        if (w + 1 == kW) {
          cost -= wd * instance.clouds[i].migration_out_price;
        }
        lp.add_variable(cost);
      }
    }
  }
  for (std::size_t w = 0; w < kW; ++w) {
    for (std::size_t i = 0; i < kI; ++i) {
      lp.add_variable(wd * instance.clouds[i].reconfiguration_price);
    }
  }
  for (std::size_t w = 0; w < kW; ++w) {
    for (std::size_t i = 0; i < kI; ++i) {
      const double price = wd * instance.clouds[i].migration_price();
      for (std::size_t j = 0; j < kJ; ++j) lp.add_variable(price);
    }
  }

  // Rows cloud-major, demand last: for each cloud i and window slot w, the
  // migration rows (i, ·, w), the reconfiguration row and the capacity row;
  // then every demand row. Cloud i's rows touch only its own x/u/v columns
  // and clouds couple only through the demand rows, so the interior-point
  // normal matrix has a narrow per-cloud staircase envelope plus WJ full
  // rows (linalg/envelope_cholesky.h).
  lp.row_block_starts.reserve(kI + 1);
  for (std::size_t i = 0; i < kI; ++i) {
    lp.row_block_starts.push_back(lp.num_rows);
    for (std::size_t w = 0; w < kW; ++w) {
      // Migration: v_{i,j,w} - x_{i,j,w} + x_{i,j,w-1} >= 0.
      for (std::size_t j = 0; j < kJ; ++j) {
        const auto row = lp.add_row_geq(0.0 - anchor(w, i, j));
        lp.set_coefficient(row, v0 + xv(w, i, j), 1.0);
        lp.set_coefficient(row, xv(w, i, j), -1.0);
        if (w > 0) lp.set_coefficient(row, xv(w - 1, i, j), 1.0);
      }
      // Reconfiguration: u_{i,w} - Σ_j x_{i,j,w} + Σ_j x_{i,j,w-1} >= 0.
      const auto reconf =
          lp.add_row_geq(0.0 - (w == 0 ? anchor_totals[i] : 0.0));
      lp.set_coefficient(reconf, u0 + w * kI + i, 1.0);
      for (std::size_t j = 0; j < kJ; ++j) {
        lp.set_coefficient(reconf, xv(w, i, j), -1.0);
        if (w > 0) lp.set_coefficient(reconf, xv(w - 1, i, j), 1.0);
      }
      // Capacity.
      const auto cap = lp.add_row_leq(instance.clouds[i].capacity);
      for (std::size_t j = 0; j < kJ; ++j) {
        lp.set_coefficient(cap, xv(w, i, j), 1.0);
      }
    }
  }
  lp.row_block_starts.push_back(lp.num_rows);
  for (std::size_t w = 0; w < kW; ++w) {
    // Demand: Σ_i x_{i,j,w} >= λ_j.
    for (std::size_t j = 0; j < kJ; ++j) {
      const auto row = lp.add_row_geq(instance.demand[j]);
      for (std::size_t i = 0; i < kI; ++i) {
        lp.set_coefficient(row, xv(w, i, j), 1.0);
      }
    }
  }
  return lp;
}

solve::LpSolution solve_horizon_lp(const solve::LpProblem& lp,
                                   const OfflineOptions& options) {
  // Auto solver choice: the exact IPM whenever its envelope factor is
  // cheap enough, PDHG above the crossover.
  const bool use_ipm =
      options.solver == OfflineOptions::Solver::kInteriorPoint ||
      (options.solver == OfflineOptions::Solver::kAuto &&
       solve::normal_factor_work(lp, kIpmFactorWorkCrossover) <=
           kIpmFactorWorkCrossover);
  if (use_ipm) return solve::InteriorPointLp().solve(lp);
  solve::PdhgOptions pdhg;
  pdhg.tolerance = options.pdhg_tolerance;
  pdhg.max_iterations = kPdhgMaxIterations;
  // The offline optimum serves as a cost denominator: the primal
  // objective is what matters, so don't wait for PDHG's slowly-converging
  // dual certificate.
  pdhg.gate_on_dual_residual = false;
  pdhg.lp_threads = options.lp_threads;
  pdhg.lp_oversubscribe = options.lp_oversubscribe;
  pdhg.min_nnz_per_thread = options.lp_min_nnz_per_thread;
  solve::LpSolution sol = solve::PdhgLp(pdhg).solve(lp);
  // Extreme weight ratios (the Figure-4 mu sweep spans six orders of
  // magnitude) can push a first-order method past its iteration budget.
  // The best iterate it returns is usually still a fine denominator —
  // accept it when its residuals are within a small factor of the target
  // rather than failing the whole experiment.
  if (sol.status == solve::SolveStatus::kIterationLimit &&
      std::max(sol.primal_residual, sol.gap) <= 20.0 * options.pdhg_tolerance) {
    sol.status = solve::SolveStatus::kOptimal;
  }
  return sol;
}

OfflineResult solve_offline(const model::Instance& instance,
                            const OfflineOptions& options) {
  const std::string instance_error = instance.validate();
  ECA_CHECK(instance_error.empty(), instance_error);
  const solve::LpSolution sol = solve_horizon_lp(
      build_horizon_lp(instance, 0, instance.num_slots, model::Allocation()),
      options);

  OfflineResult result;
  result.status = sol.status;
  result.iterations = sol.iterations;
  result.objective_value = sol.objective_value;
  if (sol.status != solve::SolveStatus::kOptimal) return result;

  const std::size_t cells = instance.num_clouds * instance.num_users;
  result.allocations.assign(
      instance.num_slots,
      model::Allocation(instance.num_clouds, instance.num_users));
  for (std::size_t t = 0; t < instance.num_slots; ++t) {
    for (std::size_t k = 0; k < cells; ++k) {
      result.allocations[t].x[k] = std::max(sol.x[t * cells + k], 0.0);
    }
  }
  return result;
}

}  // namespace eca::algo
