// Solver for the paper's regularized per-slot subproblem P2 (Section III-B).
//
//   min  Σ_ij l_ij x_ij
//        + Σ_i (c_i/η_i) [ (X_i+ε1) ln((X_i+ε1)/(Xp_i+ε1)) − X_i ]
//        + Σ_ij (b_i/τ_ij) [ (x_ij+ε2) ln((x_ij+ε2)/(xp_ij+ε2)) − x_ij ]
//   s.t. Σ_i x_ij ≥ λ_j                      ∀j   (10a)
//        Σ_{k≠i} X_k ≥ Σ_j λ_j − C_i          ∀i   (10b)
//        x_ij ≥ 0                             ∀i,j (10c)
//
// with X_i = Σ_j x_ij, η_i = ln(1+C_i/ε1), τ_ij = ln(1+λ_j/ε2).  `l_ij`
// bundles all static per-unit costs (operation price + service-quality
// delay coefficient, pre-multiplied by the caller's weights), and c_i / b_i
// are the weighted reconfiguration / migration prices.
//
// Method: primal-dual interior point with damped Newton steps. The barrier
// Hessian is diagonal + a rank-(I+J+1) term spanned by the cloud
// indicators u_i, the user indicators a_j and the all-ones vector e (the
// complement-capacity rows are e − u_i). The Woodbury reduction of each
// Newton solve therefore has an (I+J+1)×(I+J+1) capacitance system — but
// that system is itself block-structured: its J×J user block is DIAGONAL
// (the a_j directions couple only through the borders), so one more Schur
// complement reduces the dense solve to (I+1)×(I+1). Per Newton iteration
// the solver does O(I·J) assembly work (chunk-parallel, see below), one
// O(I²·J) syrk-style accumulation, and an (I+1)³ factorization — this is
// what lets a slot with thousands of users solve in milliseconds.
//
// Intra-slot parallelism: the per-iteration assembly passes partition the
// J users into fixed-size column chunks (RegularizedOptions::chunk_users).
// Workers write only chunk-indexed buffers and the caller reduces partials
// serially in chunk order, so the solve is bit-identical for every thread
// count (RegularizedOptions::slot_threads / ECA_SLOT_THREADS; default 1 =
// the serial path, which runs the same chunked reduction order).
#pragma once

#include <cstddef>
#include <memory>

#include "common/thread_pool.h"
#include "linalg/dense_matrix.h"
#include "linalg/vector_ops.h"
#include "obs/telemetry.h"
#include "solve/lp_problem.h"

namespace eca::solve {

// Index helper: x is stored row-major by cloud, x[i * num_users + j].
struct RegularizedProblem {
  std::size_t num_clouds = 0;  // I
  std::size_t num_users = 0;   // J
  Vec linear_cost;             // l_ij, size I*J
  Vec recon_price;             // c_i (>= 0), size I
  Vec migration_price;         // b_i (>= 0), size I
  Vec demand;                  // λ_j (> 0), size J
  Vec capacity;                // C_i (>= 0), size I
  Vec prev;                    // x*_{i,j,t-1}, size I*J (>= 0)
  double eps1 = 1.0;
  double eps2 = 1.0;
  // Optional per-user ε2 override: empty (default) means the scalar `eps2`
  // applies to every user; otherwise entry j replaces ε2 in user j's
  // migration regularizer and in τ_j = ln(1 + λ_j/ε2_j). The user-class
  // aggregation layer (src/agg) relies on this: collapsing a class of w
  // bitwise-identical users into one class-total variable y = w·x keeps the
  // collapsed P2 exactly equal to the per-user sum iff that class solves
  // with ε2_c = w·ε2 (then τ_c = ln(1 + w·λ/(w·ε2)) stays the per-member
  // value). Scalar-eps2 problems take the exact same code paths bit for
  // bit.
  Vec eps2_user;
  // The paper's P2 relies on Theorem 1 for capacity feasibility, but the
  // monotonicity argument only binds when demand holds with equality; with
  // large dynamic prices the regularizer can hold on to stale allocations
  // and push a cloud past its capacity. When true (default) we add the
  // explicit rows Σ_j x_ij <= C_i, which preserves convexity and never cuts
  // off the offline optimum. Set false for the paper-pure formulation
  // (ablated in bench_ablation).
  bool enforce_capacity = true;

  [[nodiscard]] std::size_t index(std::size_t i, std::size_t j) const {
    return i * num_users + j;
  }
  // Aggregate previous allocation per cloud, Xp_i.
  [[nodiscard]] Vec prev_aggregate() const;
  void prev_aggregate_into(Vec& out) const;
  // Objective value at x (exact, no barrier).
  [[nodiscard]] double objective(const Vec& x) const;
  // Gradient of the objective at x.
  [[nodiscard]] Vec gradient(const Vec& x) const;
  // Hot-path variants taking the cached aggregate of `prev` (and, for the
  // gradient, cached τ_j values) instead of recomputing them per call.
  //
  // Contract: `prev_agg` must equal prev_aggregate() for the *current*
  // contents of `prev`, and `tau_cache[j]` must equal tau(j); callers that
  // mutate `prev` (or `demand`/`eps2`) between calls must refresh the
  // caches, otherwise the reported cost and gradient are silently wrong.
  [[nodiscard]] double objective(const Vec& x, const Vec& prev_agg) const;
  void gradient_into(const Vec& x, const Vec& prev_agg, const Vec& tau_cache,
                     Vec& out) const;
  // η_i (0 when the regularizer is absent, i.e. c_i = 0 or C_i = 0).
  [[nodiscard]] double eta(std::size_t i) const;
  // Effective ε2 of user j (scalar unless eps2_user overrides it).
  [[nodiscard]] double eps2_of(std::size_t j) const {
    return eps2_user.empty() ? eps2 : eps2_user[j];
  }
  // τ_ij (only depends on j).
  [[nodiscard]] double tau(std::size_t j) const;
  [[nodiscard]] double total_demand() const;
  // Validates shapes and value ranges; empty string when consistent.
  [[nodiscard]] std::string validate() const;
};

struct RegularizedOptions {
  // Target barrier parameter: average complementarity at termination. The
  // duality gap at exit is roughly (IJ + I + J) * final_mu.
  double final_mu = 1e-9;
  // Cross-slot warm starting: start the path-following loop from a
  // feasibility-repaired blend of x*_{t-1} (the problem's `prev`) and the
  // cold analytic-center start, with the duals carried over from the last
  // successful solve on this workspace. The barrier parameter then
  // continues from the warm point's duality-gap estimate (its average
  // complementarity) instead of restarting at the cold initial μ — see
  // DESIGN.md §7. Falls back to the cold start whenever the repaired warm
  // point is not strictly interior or no previous duals are available.
  bool warm_start = true;
  // Intra-slot worker threads for the chunked assembly passes: > 0 wins,
  // 0 defers to ECA_SLOT_THREADS, else 1 (serial). Results are
  // bit-identical for every value.
  int slot_threads = 0;
  // Users per assembly chunk (fixed partition of the J columns). The value
  // changes the reduction order — and thus roundoff — so keep it constant
  // across runs that must agree bitwise; it does NOT depend on
  // slot_threads, which is what makes thread counts interchangeable.
  int chunk_users = 128;
  // Minimum users-worth of work each dispatched slot task must cover before
  // the pool engages (adaptive granularity): > 0 wins, 0 defers to
  // ECA_SLOT_MIN_CHUNK (default ThreadPool::kDefaultSlotMinChunk). Solves
  // below one floor's worth run serial. The chunk partition — and with it
  // the reduction order — never changes, so results stay bit-identical for
  // every thread count either way; only dispatch overhead is avoided.
  int slot_min_users = 0;
  // When false (default), the resolved worker count is additionally capped
  // at hardware_concurrency: the assembly is CPU-bound, so running more
  // workers than cores only adds scheduling overhead. true lifts the cap
  // and honors slot_threads / ECA_SLOT_THREADS verbatim — the bit-identity
  // tests use it to force genuine multi-worker interleaving on any
  // machine (results are bit-identical either way; only timing differs).
  bool slot_oversubscribe = false;
};

// Reusable scratch for RegularizedSolver::solve — every vector, matrix and
// LU buffer the Newton path-following loop touches, plus the per-chunk
// partial buffers of the parallel assembly and the carried-over duals of
// the warm start. After `resize()` the serial (slot_threads <= 1) iteration
// loop performs zero heap allocations; callers solving a sequence of
// same-shaped problems (OnlineApprox: one P2 per slot) should hold one
// workspace across solves, which makes `resize` a no-op, the whole solve
// allocation-free apart from the returned solution vectors, and warm
// starting possible (the workspace remembers the previous slot's duals).
struct NewtonWorkspace {
  void resize(std::size_t num_clouds, std::size_t num_users,
              std::size_t chunk_users = 128);

  // Forget the previous solve's duals so the next solve cold-starts; call
  // when starting an unrelated trajectory with the same shape (e.g.
  // OnlineApprox::reset between repetitions).
  void invalidate_warm_start() { warm_valid = false; }

  // Makes sure `pool` has exactly `threads` workers (no-op for <= 1).
  void ensure_pool(std::size_t threads);

  [[nodiscard]] std::size_t num_chunks() const { return num_chunks_; }
  [[nodiscard]] std::size_t chunk_users() const { return chunk_; }

  // Iterates (primal x, duals) and the best-KKT fallback copies.
  Vec x, delta, theta, rho, kappa;
  Vec best_x, best_delta, best_theta, best_rho, best_kappa;
  // Newton system pieces: residual, right-hand side, direction, diagonal of
  // the condensed Hessian and its inverse.
  Vec r_dual, rhs, dx, diag, inv_diag;
  // Dual step directions.
  Vec ddelta, dtheta, drho, dkappa;
  // Low-rank reduction pieces in the [u_i | a_j | e] basis: G-diagonal
  // sums, the (I+J+1)-vector scratch wtr/mw shared by the apply passes.
  Vec row_sum, col_sum, wtr, mw;
  // Schur-complement pieces of the reduced solve (J-block is diagonal):
  // t_j = θ_j/s_j, d_j = 1 + c_j t_j, w_j = t_j/d_j, the arrow middle
  // diagonal m_i and border β_i, the border vector Q and matrix
  // P = B diag(w) Bᵀ, and the (I+1)² Schur system with its LU.
  Vec tj, dj, wj, wc, mvec, beta, q_vec, small_rhs;
  linalg::DenseMatrix p_mat, s_mat;
  linalg::Lu lu;
  // Iterative-refinement buffer and per-cloud serial scratch.
  Vec residual, comp_corr, rhs_i_term, recon_term, rho_except, dx_agg,
      dx_demand;
  // Loop-invariant caches (η_i, τ_j, ε2_j, Xp_i).
  Vec eta_cache, tau_cache, eps2_cache, prev_agg;
  // Linear-constraint slacks at the current x.
  Vec slack_agg, slack_demand, slack_comp, slack_cap;
  // Per-chunk partials of the deterministic parallel assembly, indexed
  // [chunk * I + i] / [chunk * I² + ...] / [chunk * kChunkScalars + s] and
  // reduced serially in chunk order.
  Vec chunk_ia, chunk_ib, chunk_pp, chunk_sc;
  static constexpr std::size_t kChunkScalars = 4;
  // Cross-slot warm-start state: duals of the last successful solve.
  Vec warm_delta, warm_theta, warm_rho, warm_kappa;
  bool warm_valid = false;
  // Persistent worker pool for the chunked passes (null when serial).
  std::unique_ptr<ThreadPool> pool;

 private:
  std::size_t clouds_ = 0;
  std::size_t users_ = 0;
  std::size_t chunk_ = 0;
  std::size_t num_chunks_ = 0;
};

struct RegularizedSolution {
  SolveStatus status = SolveStatus::kNumericalError;
  Vec x;        // size I*J
  Vec theta;    // demand duals θ_j ≥ 0, size J
  Vec rho;      // complement duals ρ_i ≥ 0, size I
  Vec delta;    // non-negativity duals δ_ij ≥ 0, size I*J
  Vec kappa;    // capacity duals κ_i ≥ 0, size I (zero when not enforced)
  double objective_value = 0.0;
  int newton_iterations = 0;
  // True when this solve actually started from the repaired previous-slot
  // point (false: cold start, including every warm-start fallback).
  bool warm_started = false;
  // Convergence telemetry: iteration/μ-step counts, KKT residuals at exit
  // and warm-start outcome. Stage timings go to the solver.* metrics only.
  // `stats.newton_iterations` and `stats.warm_started` mirror the fields
  // above, which stay for source compatibility.
  obs::SolveTelemetry stats;
};

class RegularizedSolver {
 public:
  explicit RegularizedSolver(RegularizedOptions options = {})
      : options_(options) {}

  [[nodiscard]] RegularizedSolution solve(const RegularizedProblem& p) const;
  // Same, but reusing a caller-owned workspace: no allocations inside the
  // Newton loop (serial path), and (for same-shaped problems) none during
  // setup either. A workspace that solved the previous slot also enables
  // the cross-slot warm start (see RegularizedOptions::warm_start).
  RegularizedSolution solve(const RegularizedProblem& p,
                            NewtonWorkspace& ws) const;

 private:
  RegularizedOptions options_;
};

}  // namespace eca::solve
