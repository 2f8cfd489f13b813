// PDLP-style first-order LP solver (restarted, preconditioned PDHG).
//
// Intended for the large full-horizon ("offline optimal") LPs whose row
// count makes dense normal equations impractical. Each iteration costs two
// fused passes — a column pass (Aᵀ·y gather + primal projection +
// extrapolation + average accumulation) and a row pass (A·x̄ + dual ascent
// + cone projection + average accumulation) — over a CSR+CSC matrix built
// once from triplets. Ruiz + Pock-Chambolle diagonal rescaling, iterate
// averaging with KKT-based adaptive restarts, and an adaptive primal
// weight follow the PDLP recipe (Applegate et al.).
//
// With `lp_threads` > 1 (or ECA_LP_THREADS set) both passes, the scaling
// loop, the power iteration and the periodic KKT matvecs are partitioned
// over a ThreadPool along nonzero-balanced row/column ranges (aligned to
// the LP's `row_block_starts` when the structure is known — the offline
// LP's per-cloud row blocks). Every output element is reduced over its own
// entries in fixed storage order and all cross-element reductions stay on
// the driving thread, so results are **bit-identical for every thread
// count** (tests/solve/pdhg_parallel_test.cc, `tsan-smoke` label).
//
// The solver terminates when the *relative* primal residual, dual residual
// and duality gap all drop below `tolerance`; for benchmark denominators a
// tolerance of 1e-6..1e-4 is plenty.
#pragma once

#include <cstddef>

#include "solve/lp_problem.h"

namespace eca::solve {

struct PdhgOptions {
  int max_iterations = 200000;
  double tolerance = 1e-6;
  // When false, termination requires only the primal residual and the
  // duality gap to reach `tolerance`; the dual residual is still reported.
  // PDHG's dual certificate converges much more slowly than the primal on
  // degenerate LPs, and callers that only need the optimal objective (e.g.
  // the offline-optimum denominator of a competitive ratio) can skip it.
  bool gate_on_dual_residual = true;
  // Worker threads for the fused iteration passes, scaling and KKT matvecs.
  // 0 resolves from ECA_LP_THREADS (default 1 = serial); the resolved
  // count is additionally capped so each worker covers at least
  // `min_nnz_per_thread` matrix nonzeros and never exceeds the hardware
  // concurrency — small LPs run serial no matter what was requested, and
  // the partitioned path is bit-identical to serial anyway.
  int lp_threads = 0;
  // Adaptive granularity floor (nonzeros per dispatched worker). Dispatch
  // costs a task-queue round trip per pass; below a few tens of thousands
  // of nonzeros the arithmetic is cheaper than the dispatch.
  std::size_t min_nnz_per_thread = 32768;
  // Lifts the hardware-concurrency cap (bit-identity determinism tests
  // deliberately oversubscribe small machines to stress interleavings).
  bool lp_oversubscribe = false;
};

class PdhgLp {
 public:
  explicit PdhgLp(PdhgOptions options = {}) : options_(options) {}

  [[nodiscard]] LpSolution solve(const LpProblem& lp) const;

 private:
  PdhgOptions options_;
};

}  // namespace eca::solve
