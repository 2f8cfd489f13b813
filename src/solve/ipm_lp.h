// Mehrotra predictor-corrector interior-point method for LPs.
//
// This is the "exact" LP solver of the suite, intended for problems whose row
// count (after adding one slack per inequality row) is at most a few
// thousand: per-slot baseline LPs and small full-horizon LPs. It converts the
// LpProblem to the standard form
//
//   min c' x   s.t.  A x = b,  0 <= x,  x_i <= u_i for i with finite bound,
//
// eliminating fixed variables, shifting lower bounds to zero and adding one
// slack per inequality row, then runs the classic predictor-corrector scheme
// with normal-equations solves (Cholesky with diagonal regularization). The
// normal matrix A Theta A' is factored by linalg::BorderedCholesky: the
// longest prefix of rows that no column touches twice (the J demand rows of
// a per-slot baseline LP) forms a diagonal block, and only the border rows
// are factored densely. The factor is bitwise equal to a dense Cholesky of
// the same matrix, so the block layout never changes an iterate.
//
// A cold attempt that ends in a numerical error after its iterate passed
// through the soft tolerance (100x `tolerance` on residuals and gap) returns
// the best such iterate as optimal instead: a retry would replay the same
// trajectory.
//
// Repeated solves over same-shaped problems (the per-slot baseline LPs) go
// through an IpmWorkspace: all standard-form buffers, iterate vectors and the
// normal matrix with its factor live in the workspace and are reused
// across calls, so a steady-state resolve performs no heap allocation
// (tests/solve/ipm_alloc_test.cc pins this down with a counting allocator).
// A warm start built from the previous slot's primal/dual point can be
// supplied via IpmWarmStart; when the warm point is rejected the solve falls
// back to the cold starting point and is bitwise identical to a cold solve.
// A warm-started run that does not converge to the full tolerance (an
// iterate accepted inside the soft tolerance counts as not converged) is
// retried cold automatically (warm_fallback=true on the result): the hint is
// an optimization and must never change which problems the solver can solve
// or how accurately.
#pragma once

#include <memory>

#include "solve/lp_problem.h"

namespace eca::solve {

struct IpmOptions {
  int max_iterations = 200;
  double tolerance = 1e-8;        // relative primal/dual/gap tolerance
  double regularization = 1e-10;  // added to the normal matrix diagonal
  bool verbose = false;
};

// Warm-start hint: primal/dual point of a previously solved LP with the same
// variable/row layout (typically the previous slot's solution). Both vectors
// are borrowed — the caller keeps them alive for the duration of solve().
// Sizes must match the problem exactly or the hint is ignored.
struct IpmWarmStart {
  const Vec* x = nullptr;          // size num_vars, original variable space
  const Vec* row_duals = nullptr;  // size num_rows
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

class InteriorPointLp {
 public:
  explicit InteriorPointLp(IpmOptions options = {}) : options_(options) {}

  [[nodiscard]] LpSolution solve(const LpProblem& lp) const;
  [[nodiscard]] LpSolution solve(const LpProblem& lp, IpmWorkspace& ws) const;
  [[nodiscard]] LpSolution solve(const LpProblem& lp, IpmWorkspace& ws,
                                 const IpmWarmStart& warm) const;
  // Allocation-free entry point: writes the solution into `sol`, reusing its
  // vector capacity. With a reused workspace and a reused `sol`, a
  // steady-state resolve of a same-shaped LP performs zero heap allocations.
  void solve_into(const LpProblem& lp, IpmWorkspace& ws,
                  const IpmWarmStart& warm, LpSolution& sol) const;

 private:
  // One cold- or warm-started run of the predictor-corrector loop; the
  // public solve_into adds the cold retry on a failed warm-started run.
  void solve_attempt(const LpProblem& lp, IpmWorkspace& ws,
                     const IpmWarmStart& warm, LpSolution& sol) const;

  IpmOptions options_;
};

}  // namespace eca::solve
