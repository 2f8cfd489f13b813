// Offline optimum: the full-horizon LP relaxation of P0 with all input
// revealed in advance (the paper's offline-opt baseline and the denominator
// of every empirical competitive ratio).
//
// Formulation over all T slots with variables x_{i,j,t}, reconfiguration
// aggregates u_{i,t} and migration aux v_{i,j,t} >= (x_t - x_{t-1})^+; the
// out-direction telescopes to Σ_t b^out (v - x_t + x_{t-1}) =
// b^out (Σ_t v - x_T), so no second aux family is needed.
//
// Rows are cloud-major with the demand rows last: for each cloud i and slot
// t, migration (i, ·, t), reconfiguration (i, t) and capacity (i, t); then
// the demand rows of every slot. Clouds couple only through the demand rows,
// so the interior-point solver's envelope factor of A Θ Aᵀ costs about
// (TJ)² · TI(J+2) / 2 multiply-adds (3.2M per iteration at I=15, J=8,
// T=8) instead of a dense (T(IJ+J+2I))³ / 6 (337M).
//
// The same LP over a window of slots anchored at a previous decision is
// LookaheadOpt's model-predictive step (algo/extensions.h), so one builder
// and one solver choice serve both.
//
// The auto solver choice solves the LP exactly with that IPM (gap ≤ 1e-8)
// while one factor costs at most a measured crossover of multiply-adds, and
// with the first-order PDHG solver (PDLP-lite) above it. PDHG's answer is
// approximate: on the 24 Fig-2 taxi instances at 5e-4 it landed 0.12%
// above the exact optimum in aggregate and up to 0.56% on one instance.
#pragma once

#include "model/costs.h"
#include "model/instance.h"
#include "solve/lp_problem.h"

namespace eca::algo {

struct OfflineOptions {
  // Force a solver; kAuto picks the IPM below the factor-work crossover
  // (see the header comment).
  enum class Solver { kAuto, kInteriorPoint, kPdhg };
  Solver solver = Solver::kAuto;
  // First-order tolerance for the PDHG path: a relative gap, not a bound on
  // the objective error, since the dual is not required to converge (see
  // the header comment for the error it left on the Fig-2 instances).
  double pdhg_tolerance = 5e-4;
  // Worker threads for the PDHG path (0 = resolve from ECA_LP_THREADS,
  // default serial). The solve is bit-identical for every thread count.
  int lp_threads = 0;
  // Forwarded to PdhgOptions: lifts the hardware-concurrency cap and the
  // nonzeros-per-worker floor so determinism tests can engage the pool on
  // small LPs / small machines. Leave at defaults in production.
  bool lp_oversubscribe = false;
  std::size_t lp_min_nnz_per_thread = 32768;
};

struct OfflineResult {
  model::AllocationSequence allocations;
  double objective_value = 0.0;  // LP objective (weighted P0)
  solve::SolveStatus status = solve::SolveStatus::kNumericalError;
  int iterations = 0;
};

// Builds the horizon LP over slots [t0, t0 + window), clamped at the
// horizon, with the window's slots re-indexed from 0: x_{i,j,w} at
// w·I·J + i·J + j, then u_{i,w}, then v_{i,j,w}. `previous` anchors the
// first window slot's migration and reconfiguration rows; an empty
// allocation anchors at zero, as before slot 0. The last window slot
// carries the out-migration refund. build_horizon_lp(instance, 0, T, {}) is
// the offline LP of P0.
solve::LpProblem build_horizon_lp(const model::Instance& instance,
                                  std::size_t t0, std::size_t window,
                                  const model::Allocation& previous);

// Solves a horizon LP with options.solver's choice (see the header comment).
// A PDHG iterate within 20× of its tolerance at the iteration limit is
// accepted as optimal.
solve::LpSolution solve_horizon_lp(const solve::LpProblem& lp,
                                   const OfflineOptions& options = {});

OfflineResult solve_offline(const model::Instance& instance,
                            const OfflineOptions& options = {});

}  // namespace eca::algo
