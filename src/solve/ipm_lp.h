// Mehrotra predictor-corrector interior-point method for LPs.
//
// This is the exact LP solver of the suite: the per-slot baseline LPs and
// the offline horizon LP below algo/offline.h's measured crossover. It
// converts the LpProblem to the standard form
//
//   min c' x   s.t.  A x = b,  0 <= x,  x_i <= u_i for i with finite bound,
//
// eliminating fixed variables, shifting lower bounds to zero and adding one
// slack per inequality row, then runs the classic predictor-corrector scheme
// with normal-equations solves (Cholesky with diagonal regularization). The
// normal matrix A Theta A' is factored by linalg::EnvelopeCholesky over the
// envelope analyzed once per standard-form build: each row is stored from
// its first coupled row, so the cost follows the LP's row order rather than
// m^3 / 6. A per-slot baseline LP's J demand rows form a diagonal prefix
// and only its capacity rows are dense; the cloud-major horizon LP is a
// per-cloud staircase plus its demand rows. The factor is bitwise equal to
// a dense Cholesky of the same matrix, so the layout never changes an
// iterate. normal_factor_work() prices one factor from the sparsity
// pattern alone.
//
// A solve that ends in a numerical error after its iterate passed
// through the soft tolerance (100x `tolerance` on residuals and gap) returns
// the best such iterate as optimal instead: a retry would replay the same
// trajectory.
//
// Repeated solves over same-shaped problems (the per-slot baseline LPs) go
// through an IpmWorkspace: all standard-form buffers, iterate vectors and the
// normal matrix with its factor live in the workspace and are reused
// across calls, so a steady-state resolve performs no heap allocation
// (tests/solve/ipm_alloc_test.cc pins this down with a counting allocator).
// Every solve starts from the same data-scaled cold point, so a reused
// workspace never changes an iterate.
#pragma once

#include <memory>

#include "solve/lp_problem.h"

namespace eca::solve {

struct IpmOptions {
  int max_iterations = 200;
  double tolerance = 1e-8;        // relative primal/dual/gap tolerance
};

// Reusable solver state. Movable, not copyable; one workspace per thread —
// concurrent solves must use distinct workspaces.
class IpmWorkspace {
 public:
  IpmWorkspace();
  ~IpmWorkspace();
  IpmWorkspace(IpmWorkspace&&) noexcept;
  IpmWorkspace& operator=(IpmWorkspace&&) noexcept;
  IpmWorkspace(const IpmWorkspace&) = delete;
  IpmWorkspace& operator=(const IpmWorkspace&) = delete;

  // Implementation detail, defined in ipm_lp.cc (public so the translation
  // unit's helpers can name it; not part of the supported API).
  struct Impl;

 private:
  friend class InteriorPointLp;
  std::unique_ptr<Impl> impl_;
};

// Multiply-adds of one factorization of `lp`'s normal matrix in its
// envelope (linalg::EnvelopeCholesky), from the sparsity pattern alone.
// Counts every LP row and column, so it bounds the work on the standard
// form, which may drop constant rows and fixed variables. Summing stops
// once the count exceeds `cap`.
[[nodiscard]] double normal_factor_work(const LpProblem& lp, double cap);

class InteriorPointLp {
 public:
  explicit InteriorPointLp(IpmOptions options = {}) : options_(options) {}

  [[nodiscard]] LpSolution solve(const LpProblem& lp) const;
  [[nodiscard]] LpSolution solve(const LpProblem& lp, IpmWorkspace& ws) const;
  // Allocation-free entry point: writes the solution into `sol`, reusing its
  // vector capacity. With a reused workspace and a reused `sol`, a
  // steady-state resolve of a same-shaped LP performs zero heap allocations.
  void solve_into(const LpProblem& lp, IpmWorkspace& ws,
                  LpSolution& sol) const;

 private:
  // The predictor-corrector loop; solve_into wraps it in the trace span,
  // the solve counter and the ipm_fail fault seam.
  void solve_attempt(const LpProblem& lp, IpmWorkspace& ws,
                     LpSolution& sol) const;

  IpmOptions options_;
};

}  // namespace eca::solve
