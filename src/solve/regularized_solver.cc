#include "solve/regularized_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/fault.h"
#include "common/log.h"
#include "linalg/dense_matrix.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eca::solve {

Vec RegularizedProblem::prev_aggregate() const {
  Vec agg(num_clouds, 0.0);
  prev_aggregate_into(agg);
  return agg;
}

void RegularizedProblem::prev_aggregate_into(Vec& out) const {
  out.assign(num_clouds, 0.0);
  for (std::size_t i = 0; i < num_clouds; ++i) {
    for (std::size_t j = 0; j < num_users; ++j) out[i] += prev[index(i, j)];
  }
}

double RegularizedProblem::eta(std::size_t i) const {
  if (capacity[i] <= 0.0) return 0.0;
  return std::log1p(capacity[i] / eps1);
}

double RegularizedProblem::tau(std::size_t j) const {
  return std::log1p(demand[j] / eps2_of(j));
}

double RegularizedProblem::total_demand() const {
  return linalg::sum(demand);
}

double RegularizedProblem::objective(const Vec& x) const {
  return objective(x, prev_aggregate());
}

double RegularizedProblem::objective(const Vec& x, const Vec& prev_agg) const {
  ECA_CHECK(x.size() == num_clouds * num_users);
  ECA_CHECK(prev_agg.size() == num_clouds);
  double value = linalg::dot(linear_cost, x);
  for (std::size_t i = 0; i < num_clouds; ++i) {
    double agg = 0.0;
    for (std::size_t j = 0; j < num_users; ++j) agg += x[index(i, j)];
    const double eta_i = eta(i);
    if (recon_price[i] > 0.0 && eta_i > 0.0) {
      const double num = agg + eps1;
      const double den = prev_agg[i] + eps1;
      value += recon_price[i] / eta_i * (num * std::log(num / den) - agg);
    }
    if (migration_price[i] > 0.0) {
      for (std::size_t j = 0; j < num_users; ++j) {
        const std::size_t ij = index(i, j);
        const double e2 = eps2_of(j);
        const double num = x[ij] + e2;
        const double den = prev[ij] + e2;
        value += migration_price[i] / tau(j) *
                 (num * std::log(num / den) - x[ij]);
      }
    }
  }
  return value;
}

Vec RegularizedProblem::gradient(const Vec& x) const {
  Vec grad(num_clouds * num_users);
  Vec tau_cache(num_users);
  for (std::size_t j = 0; j < num_users; ++j) tau_cache[j] = tau(j);
  gradient_into(x, prev_aggregate(), tau_cache, grad);
  return grad;
}

void RegularizedProblem::gradient_into(const Vec& x, const Vec& prev_agg,
                                       const Vec& tau_cache, Vec& out) const {
  ECA_CHECK(x.size() == num_clouds * num_users);
  ECA_CHECK(prev_agg.size() == num_clouds);
  ECA_CHECK(tau_cache.size() == num_users);
  ECA_CHECK(out.size() == x.size());
  std::copy(linear_cost.begin(), linear_cost.end(), out.begin());
  for (std::size_t i = 0; i < num_clouds; ++i) {
    double agg = 0.0;
    for (std::size_t j = 0; j < num_users; ++j) agg += x[index(i, j)];
    const double eta_i = eta(i);
    const double recon_term =
        (recon_price[i] > 0.0 && eta_i > 0.0)
            ? recon_price[i] / eta_i *
                  std::log((agg + eps1) / (prev_agg[i] + eps1))
            : 0.0;
    const double mig = migration_price[i];
    for (std::size_t j = 0; j < num_users; ++j) {
      const std::size_t ij = index(i, j);
      double g = recon_term;
      if (mig > 0.0) {
        const double e2 = eps2_of(j);
        g += mig / tau_cache[j] * std::log((x[ij] + e2) / (prev[ij] + e2));
      }
      out[ij] += g;
    }
  }
}

std::string RegularizedProblem::validate() const {
  std::ostringstream err;
  const std::size_t n = num_clouds * num_users;
  if (num_clouds == 0 || num_users == 0) {
    err << "empty problem";
    return err.str();
  }
  if (linear_cost.size() != n || prev.size() != n ||
      recon_price.size() != num_clouds ||
      migration_price.size() != num_clouds || capacity.size() != num_clouds ||
      demand.size() != num_users) {
    err << "array sizes inconsistent with I=" << num_clouds
        << " J=" << num_users;
    return err.str();
  }
  if (eps1 <= 0.0 || eps2 <= 0.0) {
    err << "eps1/eps2 must be positive";
    return err.str();
  }
  if (!eps2_user.empty()) {
    if (eps2_user.size() != num_users) {
      err << "eps2_user must be empty or have one entry per user";
      return err.str();
    }
    for (std::size_t j = 0; j < num_users; ++j) {
      if (eps2_user[j] <= 0.0) {
        err << "eps2_user of user " << j << " must be positive";
        return err.str();
      }
    }
  }
  for (std::size_t j = 0; j < num_users; ++j) {
    if (demand[j] <= 0.0) {
      err << "demand of user " << j << " must be positive";
      return err.str();
    }
  }
  for (std::size_t i = 0; i < num_clouds; ++i) {
    if (recon_price[i] < 0.0 || migration_price[i] < 0.0 ||
        capacity[i] < 0.0) {
      err << "prices/capacities must be non-negative (cloud " << i << ")";
      return err.str();
    }
  }
  for (double v : prev) {
    if (v < 0.0) {
      err << "previous allocation must be non-negative";
      return err.str();
    }
  }
  return {};
}

void NewtonWorkspace::resize(std::size_t num_clouds, std::size_t num_users,
                             std::size_t chunk_users) {
  if (chunk_users == 0) chunk_users = 1;
  if (clouds_ == num_clouds && users_ == num_users && chunk_ == chunk_users) {
    return;
  }
  clouds_ = num_clouds;
  users_ = num_users;
  chunk_ = chunk_users;
  num_chunks_ = num_users == 0 ? 0 : (num_users + chunk_ - 1) / chunk_;
  warm_valid = false;  // carried duals match the old shape only
  const std::size_t n = num_clouds * num_users;
  const std::size_t k = num_clouds + num_users + 1;
  for (Vec* v : {&x, &delta, &best_x, &best_delta, &r_dual, &rhs, &dx, &diag,
                 &inv_diag, &ddelta, &residual, &warm_delta}) {
    v->assign(n, 0.0);
  }
  for (Vec* v : {&rho, &kappa, &best_rho, &best_kappa, &drho, &dkappa,
                 &row_sum, &comp_corr, &rhs_i_term, &recon_term, &rho_except,
                 &dx_agg, &eta_cache, &prev_agg, &slack_agg, &slack_comp,
                 &slack_cap, &mvec, &beta, &q_vec, &warm_rho, &warm_kappa}) {
    v->assign(num_clouds, 0.0);
  }
  for (Vec* v : {&theta, &best_theta, &dtheta, &col_sum, &dx_demand,
                 &tau_cache, &eps2_cache, &slack_demand, &tj, &dj, &wj, &wc,
                 &warm_theta}) {
    v->assign(num_users, 0.0);
  }
  for (Vec* v : {&wtr, &mw}) v->assign(k, 0.0);
  small_rhs.assign(num_clouds + 1, 0.0);
  chunk_ia.assign(num_chunks_ * num_clouds, 0.0);
  chunk_ib.assign(num_chunks_ * num_clouds, 0.0);
  chunk_pp.assign(num_chunks_ * num_clouds * num_clouds, 0.0);
  chunk_sc.assign(num_chunks_ * kChunkScalars, 0.0);
  p_mat = linalg::DenseMatrix(num_clouds, num_clouds);
  s_mat = linalg::DenseMatrix(num_clouds + 1, num_clouds + 1);
}

void NewtonWorkspace::ensure_pool(std::size_t threads) {
  if (threads <= 1) {
    pool.reset();
    return;
  }
  if (pool && pool->size() == threads) return;
  pool = std::make_unique<ThreadPool>(threads);
}

namespace {

using linalg::DenseMatrix;

// Barrier schedule: the cold start's μ (scaled by the cost magnitude) and
// the per-iteration shrink toward the average complementarity.
constexpr double kInitialMu = 1.0;
constexpr double kMuShrink = 0.2;
// Blend weight toward the cold interior point during warm-point repair
// (x_warm = (1-w)·prev + w·cold). Pulls boundary-hugging previous optima
// far enough inside for the barrier to be finite.
constexpr double kWarmBlend = 0.1;

// Strictly feasible starting point. Without capacity enforcement P2 is
// always strictly feasible for I >= 2 (scale allocations up); with it we
// spread demand proportionally to capacity and inflate by a factor strictly
// between 1 and ΣC/Λ.
void feasible_start(const RegularizedProblem& p, Vec& x) {
  const std::size_t kI = p.num_clouds;
  const std::size_t kJ = p.num_users;
  const double total_cap = linalg::sum(p.capacity);
  Vec weight(kI);
  double wsum = 0.0;
  if (p.enforce_capacity) {
    for (std::size_t i = 0; i < kI; ++i) {
      weight[i] = p.capacity[i];
      wsum += weight[i];
    }
  } else {
    const double bump = std::max(total_cap, 1.0) * 1e-3;
    for (std::size_t i = 0; i < kI; ++i) {
      weight[i] = p.capacity[i] + bump;
      wsum += weight[i];
    }
  }
  double inflate = 1.25;
  if (p.enforce_capacity) {
    const double headroom = total_cap / std::max(p.total_demand(), 1e-12);
    inflate = 0.5 * (1.0 + std::min(1.25, headroom));
  }
  for (std::size_t i = 0; i < kI; ++i) {
    for (std::size_t j = 0; j < kJ; ++j) {
      x[p.index(i, j)] = inflate * p.demand[j] * weight[i] / wsum;
    }
  }
}

void uniform_start(const RegularizedProblem& p, double scale, Vec& x) {
  const double kI = static_cast<double>(p.num_clouds);
  for (std::size_t i = 0; i < p.num_clouds; ++i) {
    for (std::size_t j = 0; j < p.num_users; ++j) {
      x[p.index(i, j)] = scale * p.demand[j] / kI;
    }
  }
}

bool strictly_interior(const Vec& x, const NewtonWorkspace& ws, bool has_comp,
                       bool has_cap) {
  for (double v : x) {
    if (v <= 0.0) return false;
  }
  for (double v : ws.slack_demand) {
    if (v <= 0.0) return false;
  }
  if (has_comp) {
    for (double v : ws.slack_comp) {
      if (v <= 0.0) return false;
    }
  }
  if (has_cap) {
    for (double v : ws.slack_cap) {
      if (v <= 0.0) return false;
    }
  }
  return true;
}

// Acceptance test for the repaired warm point: strictly interior with a
// small relative margin on every linear slack, so a barely-feasible blend
// (previous optimum from a different problem, or a near-degenerate slot)
// falls back to the cold start instead of producing huge initial barrier
// terms. NaNs fail every comparison and land in the fallback too.
bool warm_point_usable(const RegularizedProblem& p, const NewtonWorkspace& ws,
                       bool has_comp, bool has_cap, double lambda_total) {
  for (double v : ws.x) {
    if (!(v > 0.0)) return false;
  }
  for (std::size_t j = 0; j < p.num_users; ++j) {
    if (!(ws.slack_demand[j] > 1e-10 * (1.0 + p.demand[j]))) return false;
  }
  if (has_comp) {
    for (std::size_t i = 0; i < p.num_clouds; ++i) {
      if (!(ws.slack_comp[i] > 1e-10 * (1.0 + lambda_total))) return false;
    }
  }
  if (has_cap) {
    for (std::size_t i = 0; i < p.num_clouds; ++i) {
      if (!(ws.slack_cap[i] > 1e-10 * (1.0 + p.capacity[i]))) return false;
    }
  }
  return true;
}

// Cached handles into the global metrics registry. Acquired once (first
// solve in the process — registration locks and allocates), then every
// update is a sharded relaxed atomic op: the Newton hot path stays
// allocation-free (tests/solve/newton_alloc_test.cc).
// Every counter is recorded only by the thread driving the solve, so the
// integer totals are deterministic for any slot_threads value.
struct SolverMetrics {
  obs::Counter& solves;
  obs::Counter& newton_iterations;
  obs::Counter& warm_starts;
  obs::Counter& warm_fallbacks;
  obs::DoubleCounter& assembly_seconds;
  obs::DoubleCounter& factor_seconds;
  obs::DoubleCounter& solve_seconds;

  static SolverMetrics& get() {
    static SolverMetrics m{
        obs::MetricsRegistry::global().counter("solver.solves"),
        obs::MetricsRegistry::global().counter("solver.newton_iterations"),
        obs::MetricsRegistry::global().counter("solver.warm_starts"),
        obs::MetricsRegistry::global().counter("solver.warm_fallbacks"),
        obs::MetricsRegistry::global().double_counter(
            "solver.assembly_seconds"),
        obs::MetricsRegistry::global().double_counter("solver.factor_seconds"),
        obs::MetricsRegistry::global().double_counter("solver.solve_seconds")};
    return m;
  }
};

}  // namespace

RegularizedSolution RegularizedSolver::solve(
    const RegularizedProblem& p) const {
  NewtonWorkspace ws;
  return solve(p, ws);
}

// Primal-dual interior-point method. Perturbed KKT system:
//   ∇f(x) − δ − Σ_j θ_j a_j − Σ_i ρ_i (e − u_i) + Σ_i κ_i u_i = 0
//   x_ij δ_ij = μ,  s_j θ_j = μ,  p_i ρ_i = μ,  q_i κ_i = μ
// Eliminating the dual steps yields a Newton matrix
//   H_f + diag(δ/x) + Σ_j (θ_j/s_j) a_j a_j'
//       + Σ_i (ρ_i/p_i)(e−u_i)(e−u_i)' + Σ_i (κ_i/q_i) u_i u_i'
// which is D + W M W' with diagonal D and W = [u_1..u_I | a_1..a_J | e].
//
// The Woodbury reduction solves (I + G M) w = W' D⁻¹ r with G = W' D⁻¹ W.
// Writing B = D⁻¹ reshaped I×J, r_i = Σ_j B_ij, c_j = Σ_i B_ij,
// s = Σ_ij B_ij, the arrow-shaped middle matrix M has u-block diag(m_i)
// with e-borders −β_i (β_i = ρ_i/p_i, m_i = h_i + κ_i/q_i + β_i) and
// a-block diag(t_j), t_j = θ_j/s_j. The (a_j, a_j') block of I + G M is
// then DIAGONAL: d_j = 1 + c_j t_j ≥ 1. Eliminating the J user directions
// first leaves an (I+1)×(I+1) Schur system S over [u_1..u_I, e] built from
//   P = B diag(w) Bᵀ (w_j = t_j/d_j),  Q_i = Σ_j B_ij w_j c_j,
//   R = Σ_j c_j² w_j:
//   S(i,i') = δ_{ii'}(1 + r_i m_i) − r_i β_{i'} − m_{i'} P(i,i') + β_{i'} Q_i
//   S(i,e)  = r_i (β_Σ − β_i) + (Pβ)_i − Q_i β_Σ
//   S(e,i') = r_{i'} m_{i'} − s β_{i'} − m_{i'} Q_{i'} + β_{i'} R
//   S(e,e)  = 1 − Σ_i r_i β_i + s β_Σ + Σ_i Q_i β_i − R β_Σ
// so a Newton solve costs O(I·J) assembly + O(I²·J) for P (the
// linalg::syrk_scaled_acc kernel) + an (I+1)³ LU — instead of the former
// dense (I+J+1)³ factorization whose workspace alone was Θ((I+J)²).
//
// Parallel deterministic assembly: every O(I·J) pass partitions the J user
// columns into fixed-size chunks. Workers write chunk-indexed partial
// buffers (ws.chunk_*) or chunk-owned [j0,j1) slices of per-user vectors,
// and the caller reduces partials serially in chunk order — identical
// floating-point association for every slot_threads value, including the
// serial path, which runs the same chunked order inline. Per-user
// quantities (col_sum, t_j, d_j, w_j, slack_demand, dθ_j, ...) are computed
// entirely inside the owning chunk and need no reduction.
//
// Every buffer lives in the caller-provided workspace: after ws.resize()
// the serial iteration loop performs no heap allocation (verified by
// tests/solve/newton_alloc_test.cc). With slot_threads > 1 each parallel
// region submits one task per worker (type-erased, so it may allocate);
// everything the workers touch is pre-sized.
RegularizedSolution RegularizedSolver::solve(const RegularizedProblem& p,
                                             NewtonWorkspace& ws) const {
  ECA_TRACE_SPAN("p2_solve");
  const std::uint64_t solve_t0 = obs::steady_clock_ns();
  std::uint64_t assembly_ns = 0;
  std::uint64_t factor_ns = 0;

  RegularizedSolution sol;
  const std::string problem_error = p.validate();
  ECA_CHECK(problem_error.empty(), problem_error);

  const std::size_t kI = p.num_clouds;
  const std::size_t kJ = p.num_users;
  const std::size_t n = kI * kJ;
  const double lambda_total = p.total_demand();
  const bool has_comp = kI >= 2;
  const bool has_cap = p.enforce_capacity;

  if (kI == 1 && lambda_total - p.capacity[0] > 1e-9) {
    // Constraint (10b) degenerates to the constant condition 0 >= Λ - C_1.
    sol.status = SolveStatus::kPrimalInfeasible;
    return sol;
  }
  if (has_cap && linalg::sum(p.capacity) <= lambda_total * (1.0 + 1e-12)) {
    sol.status = SolveStatus::kPrimalInfeasible;
    return sol;
  }

  const std::size_t chunk_users =
      options_.chunk_users > 0 ? static_cast<std::size_t>(options_.chunk_users)
                               : 128;
  ws.resize(kI, kJ, chunk_users);
  const std::size_t n_chunks = ws.num_chunks();
  // Adaptive granularity: never dispatch a worker for less than
  // `min_users` users of assembly work (pool dispatch costs more than the
  // arithmetic below that). The chunk partition — and so the reduction
  // order — is unchanged; capping the worker count cannot change results.
  const std::size_t min_users =
      options_.slot_min_users > 0
          ? static_cast<std::size_t>(options_.slot_min_users)
          : ThreadPool::slot_min_chunk();
  const std::size_t threads = ThreadPool::resolve_slot_threads(
      options_.slot_threads, kJ, min_users, !options_.slot_oversubscribe);
  ws.ensure_pool(threads);
  const bool use_pool = threads > 1 && n_chunks > 1 && ws.pool != nullptr;

  // Runs fn(c) for every chunk c. The serial path calls the callable
  // directly (no std::function, no allocation); the pooled path dispatches
  // on the persistent workspace pool. Either way the caller reduces any
  // per-chunk partials afterwards, serially and in chunk order.
  const auto for_chunks = [&](auto&& fn) {
    if (use_pool) {
      ws.pool->run_indexed(n_chunks, fn);
    } else {
      for (std::size_t c = 0; c < n_chunks; ++c) fn(c);
    }
  };
  const auto chunk_begin = [&](std::size_t c) { return c * chunk_users; };
  const auto chunk_end = [&](std::size_t c) {
    return std::min(kJ, (c + 1) * chunk_users);
  };

  // Recomputes every linear-constraint slack from ws.x: aggregate X_i,
  // demand s_j = Σ_i x_ij − λ_j, complement p_i = Σ_{k≠i} X_k − (Λ − C_i),
  // capacity q_i = C_i − X_i.
  const auto recompute_slacks = [&] {
    for_chunks([&](std::size_t c) {
      const std::size_t j0 = chunk_begin(c);
      const std::size_t j1 = chunk_end(c);
      double* ia = ws.chunk_ia.data() + c * kI;
      for (std::size_t j = j0; j < j1; ++j) ws.slack_demand[j] = 0.0;
      for (std::size_t i = 0; i < kI; ++i) {
        const std::size_t base = i * kJ;
        double acc = 0.0;
        for (std::size_t j = j0; j < j1; ++j) {
          const double v = ws.x[base + j];
          acc += v;
          ws.slack_demand[j] += v;
        }
        ia[i] = acc;
      }
      for (std::size_t j = j0; j < j1; ++j) ws.slack_demand[j] -= p.demand[j];
    });
    linalg::fill(ws.slack_agg, 0.0);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const double* ia = ws.chunk_ia.data() + c * kI;
      for (std::size_t i = 0; i < kI; ++i) ws.slack_agg[i] += ia[i];
    }
    if (has_comp) {
      const double total = linalg::sum(ws.slack_agg);
      for (std::size_t i = 0; i < kI; ++i) {
        ws.slack_comp[i] =
            total - ws.slack_agg[i] - lambda_total + p.capacity[i];
      }
    }
    if (has_cap) {
      for (std::size_t i = 0; i < kI; ++i) {
        ws.slack_cap[i] = p.capacity[i] - ws.slack_agg[i];
      }
    }
  };

  const double cost_scale = 1.0 + linalg::norm_inf(p.linear_cost);
  double mu = kInitialMu * cost_scale;

  // --- Primal/dual start: warm (previous slot) or cold ---------------------
  bool warm = false;
  const bool warm_requested = options_.warm_start && ws.warm_valid;
  if (warm_requested) {
    // Repair x*_{t-1} into a strictly interior point by blending toward the
    // cold start (built in ws.dx, which is free scratch here). The blend
    // restores an interior margin even when the previous optimum sits on
    // the boundary (binding demand rows, x_ij = 0 entries).
    feasible_start(p, ws.dx);
    for (std::size_t idx = 0; idx < n; ++idx) {
      ws.x[idx] = (1.0 - kWarmBlend) * p.prev[idx] + kWarmBlend * ws.dx[idx];
    }
    recompute_slacks();
    if (warm_point_usable(p, ws, has_comp, has_cap, lambda_total) &&
        !fault_fire(FaultSite::kWarmReject)) {
      // Carry the previous duals, floored away from zero so every
      // complementarity pair stays interior. The barrier continuation is
      // implicit: the loop below re-derives μ from the current average
      // complementarity each iteration, so the first target is
      // kMuShrink × (warm duality-gap estimate) instead of kInitialMu.
      const double floor_v = 1e-12 * cost_scale;
      for (std::size_t idx = 0; idx < n; ++idx) {
        ws.delta[idx] = std::max(ws.warm_delta[idx], floor_v);
      }
      for (std::size_t j = 0; j < kJ; ++j) {
        ws.theta[j] = std::max(ws.warm_theta[j], floor_v);
      }
      linalg::fill(ws.rho, 0.0);
      linalg::fill(ws.kappa, 0.0);
      if (has_comp) {
        for (std::size_t i = 0; i < kI; ++i) {
          ws.rho[i] = std::max(ws.warm_rho[i], floor_v);
        }
      }
      if (has_cap) {
        for (std::size_t i = 0; i < kI; ++i) {
          ws.kappa[i] = std::max(ws.warm_kappa[i], floor_v);
        }
      }
      warm = true;
    }
  }
  if (!warm) {
    // Cold start — identical to the warm_start=false path, so a warm-start
    // fallback reproduces the cold solve bit for bit.
    feasible_start(p, ws.x);
    recompute_slacks();
    if (!strictly_interior(ws.x, ws, has_comp, has_cap)) {
      const double scale =
          kI >= 2 ? std::max(2.0, 2.0 * static_cast<double>(kI) /
                                      static_cast<double>(kI - 1))
                  : 1.1;
      uniform_start(p, scale, ws.x);
      recompute_slacks();
      if (!strictly_interior(ws.x, ws, has_comp, has_cap)) {
        sol.status = SolveStatus::kNumericalError;
        ws.warm_valid = false;
        return sol;
      }
    }
    linalg::fill(ws.rho, 0.0);
    linalg::fill(ws.kappa, 0.0);
    for (std::size_t idx = 0; idx < n; ++idx) ws.delta[idx] = mu / ws.x[idx];
    for (std::size_t j = 0; j < kJ; ++j) {
      ws.theta[j] = mu / ws.slack_demand[j];
    }
    if (has_comp) {
      for (std::size_t i = 0; i < kI; ++i) ws.rho[i] = mu / ws.slack_comp[i];
    }
    if (has_cap) {
      for (std::size_t i = 0; i < kI; ++i) ws.kappa[i] = mu / ws.slack_cap[i];
    }
  }
  sol.warm_started = warm;
  sol.stats.warm_started = warm;
  sol.stats.warm_fallback = warm_requested && !warm;

  const std::size_t k = kI + kJ + 1;  // reduction basis: u_i, a_j, e
  const std::size_t total_constraints = n + kJ + (has_comp ? kI : 0) +
                                        (has_cap ? kI : 0);
  // Loop-invariant caches: τ_j, ε2_j, η_i and the previous aggregate Xp_i
  // (objective/gradient would otherwise recompute Xp per call).
  for (std::size_t j = 0; j < kJ; ++j) {
    ws.tau_cache[j] = p.tau(j);
    ws.eps2_cache[j] = p.eps2_of(j);
  }
  for (std::size_t i = 0; i < kI; ++i) ws.eta_cache[i] = p.eta(i);
  p.prev_aggregate_into(ws.prev_agg);

  // Best-iterate tracking: the pure-LP corner of the problem (no
  // regularizers => no objective curvature) can lose accuracy at very small
  // mu; we keep the best KKT point seen and fall back to it. Same-size
  // copy-assignments below reuse the destination buffers.
  double best_score = kInf;
  double best_comp_avg = 0.0;
  double best_dual_resid = 0.0;
  ws.best_x = ws.x;
  ws.best_delta = ws.delta;
  ws.best_theta = ws.theta;
  ws.best_rho = ws.rho;
  ws.best_kappa = ws.kappa;

  // Arrow middle pieces of the current iteration, shared by the apply
  // lambdas below (filled once per iteration before factoring S).
  double beta_sum = 0.0;

  // out = (D + W M W')⁻¹ r_in via the Woodbury + Schur reduction described
  // above. With `accumulate` the result is added into `out` (used for the
  // refinement corrections, out must not alias r_in then).
  const auto apply_inverse = [&](const Vec& r_in, Vec& out, bool accumulate) {
    double* u = ws.wtr.data() + kI;  // b_J: u_j = Σ_i B_ij r_ij (chunk-owned)
    for_chunks([&](std::size_t c) {
      const std::size_t j0 = chunk_begin(c);
      const std::size_t j1 = chunk_end(c);
      double* ia = ws.chunk_ia.data() + c * kI;  // b_I partials
      double* ib = ws.chunk_ib.data() + c * kI;  // Σ_j B_ij w_j u_j partials
      double* sc = ws.chunk_sc.data() + c * NewtonWorkspace::kChunkScalars;
      std::fill(ib, ib + kI, 0.0);
      for (std::size_t j = j0; j < j1; ++j) u[j] = 0.0;
      for (std::size_t i = 0; i < kI; ++i) {
        const std::size_t base = i * kJ;
        double acc = 0.0;
        for (std::size_t j = j0; j < j1; ++j) {
          const double v = ws.inv_diag[base + j] * r_in[base + j];
          acc += v;
          u[j] += v;
        }
        ia[i] = acc;
      }
      double b_e = 0.0;
      double cwu = 0.0;
      for (std::size_t j = j0; j < j1; ++j) {
        const double wu = ws.wj[j] * u[j];
        ws.wc[j] = wu;
        b_e += u[j];
        cwu += ws.col_sum[j] * wu;
      }
      linalg::gemv_cols_acc(ws.inv_diag.data(), kI, kJ, ws.wc.data(), j0, j1,
                            ib);
      sc[0] = b_e;
      sc[1] = cwu;
    });
    // Schur right-hand side b̂ = [b_I − B diag(w) u ; b_e − Σ_j c_j w_j u_j],
    // reduced in chunk order.
    for (std::size_t i = 0; i < kI; ++i) ws.small_rhs[i] = 0.0;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const double* ia = ws.chunk_ia.data() + c * kI;
      for (std::size_t i = 0; i < kI; ++i) ws.small_rhs[i] += ia[i];
    }
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const double* ib = ws.chunk_ib.data() + c * kI;
      for (std::size_t i = 0; i < kI; ++i) ws.small_rhs[i] -= ib[i];
    }
    double b_e = 0.0;
    double cwu = 0.0;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const double* sc = ws.chunk_sc.data() + c * NewtonWorkspace::kChunkScalars;
      b_e += sc[0];
      cwu += sc[1];
    }
    ws.small_rhs[kI] = b_e - cwu;
    ws.lu.solve_in_place(ws.small_rhs);  // now [w_I ; w_e]
    const double w_e = ws.small_rhs[kI];
    double bw = 0.0;
    for (std::size_t i = 0; i < kI; ++i) {
      ws.mw[i] = ws.mvec[i] * ws.small_rhs[i] - ws.beta[i] * w_e;
      bw += ws.beta[i] * ws.small_rhs[i];
    }
    const double mw_e = beta_sum * w_e - bw;
    ws.mw[k - 1] = mw_e;
    // Back-substitute the user directions and expand out = B (r − W m w).
    for_chunks([&](std::size_t c) {
      const std::size_t j0 = chunk_begin(c);
      const std::size_t j1 = chunk_end(c);
      for (std::size_t j = j0; j < j1; ++j) ws.wc[j] = 0.0;
      for (std::size_t i = 0; i < kI; ++i) {
        const std::size_t base = i * kJ;
        const double mwi = ws.mw[i];
        for (std::size_t j = j0; j < j1; ++j) {
          ws.wc[j] += ws.inv_diag[base + j] * mwi;
        }
      }
      for (std::size_t j = j0; j < j1; ++j) {
        const double w_j = (u[j] - ws.wc[j] - ws.col_sum[j] * mw_e) / ws.dj[j];
        ws.mw[kI + j] = ws.tj[j] * w_j;
      }
      for (std::size_t i = 0; i < kI; ++i) {
        const std::size_t base = i * kJ;
        const double mwi = ws.mw[i];
        if (accumulate) {
          for (std::size_t j = j0; j < j1; ++j) {
            out[base + j] += ws.inv_diag[base + j] *
                             (r_in[base + j] - mwi - ws.mw[kI + j] - mw_e);
          }
        } else {
          for (std::size_t j = j0; j < j1; ++j) {
            out[base + j] = ws.inv_diag[base + j] *
                            (r_in[base + j] - mwi - ws.mw[kI + j] - mw_e);
          }
        }
      }
    });
  };

  // out = rhs_in − (D + W M W') d_in, the fused residual of one refinement
  // round (exact matrix, arrow-product middle).
  const auto apply_matrix_residual = [&](const Vec& d_in, const Vec& rhs_in,
                                         Vec& out) {
    double* u = ws.wtr.data() + kI;  // (Wᵀ d)_J, chunk-owned
    for_chunks([&](std::size_t c) {
      const std::size_t j0 = chunk_begin(c);
      const std::size_t j1 = chunk_end(c);
      double* ia = ws.chunk_ia.data() + c * kI;
      double* sc = ws.chunk_sc.data() + c * NewtonWorkspace::kChunkScalars;
      for (std::size_t j = j0; j < j1; ++j) u[j] = 0.0;
      for (std::size_t i = 0; i < kI; ++i) {
        const std::size_t base = i * kJ;
        double acc = 0.0;
        for (std::size_t j = j0; j < j1; ++j) {
          const double v = d_in[base + j];
          acc += v;
          u[j] += v;
        }
        ia[i] = acc;
      }
      double ue = 0.0;
      for (std::size_t j = j0; j < j1; ++j) ue += u[j];
      sc[0] = ue;
    });
    for (std::size_t i = 0; i < kI; ++i) ws.small_rhs[i] = 0.0;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const double* ia = ws.chunk_ia.data() + c * kI;
      for (std::size_t i = 0; i < kI; ++i) ws.small_rhs[i] += ia[i];
    }
    double wtd_e = 0.0;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      wtd_e += ws.chunk_sc[c * NewtonWorkspace::kChunkScalars];
    }
    double bw = 0.0;
    for (std::size_t i = 0; i < kI; ++i) {
      ws.mw[i] = ws.mvec[i] * ws.small_rhs[i] - ws.beta[i] * wtd_e;
      bw += ws.beta[i] * ws.small_rhs[i];
    }
    const double mw_e = beta_sum * wtd_e - bw;
    ws.mw[k - 1] = mw_e;
    for_chunks([&](std::size_t c) {
      const std::size_t j0 = chunk_begin(c);
      const std::size_t j1 = chunk_end(c);
      for (std::size_t j = j0; j < j1; ++j) {
        ws.mw[kI + j] = ws.tj[j] * u[j];
      }
      for (std::size_t i = 0; i < kI; ++i) {
        const std::size_t base = i * kJ;
        const double mwi = ws.mw[i];
        for (std::size_t j = j0; j < j1; ++j) {
          out[base + j] =
              rhs_in[base + j] - (ws.diag[base + j] * d_in[base + j] + mwi +
                                  ws.mw[kI + j] + mw_e);
        }
      }
    });
  };

  const int max_iterations = fault_fire(FaultSite::kIterCap) ? 1 : 200;
  int iter = 0;
  bool converged = false;
  // Exit-time KKT telemetry (cost-scale relative) and the μ-continuation
  // path length (strict decreases of the barrier target).
  int mu_steps = 0;
  double exit_comp_avg = 0.0;
  double exit_dual_resid = 0.0;
  for (; iter < max_iterations; ++iter) {
    ECA_TRACE_SPAN("newton_iter");
    // --- Residuals (gradient fused into the dual residual pass) -----------
    const double rho_total = has_comp ? linalg::sum(ws.rho) : 0.0;
    for (std::size_t i = 0; i < kI; ++i) {
      const double eta_i = ws.eta_cache[i];
      ws.recon_term[i] =
          (p.recon_price[i] > 0.0 && eta_i > 0.0)
              ? p.recon_price[i] / eta_i *
                    std::log((ws.slack_agg[i] + p.eps1) /
                             (ws.prev_agg[i] + p.eps1))
              : 0.0;
      ws.rho_except[i] = has_comp ? rho_total - ws.rho[i] : 0.0;
    }
    for_chunks([&](std::size_t c) {
      const std::size_t j0 = chunk_begin(c);
      const std::size_t j1 = chunk_end(c);
      double* sc = ws.chunk_sc.data() + c * NewtonWorkspace::kChunkScalars;
      double rmax = 0.0;
      double comp_part = 0.0;
      for (std::size_t i = 0; i < kI; ++i) {
        const std::size_t base = i * kJ;
        const double mig = p.migration_price[i];
        const double rterm = ws.recon_term[i];
        const double rex = ws.rho_except[i];
        const double kap = has_cap ? ws.kappa[i] : 0.0;
        for (std::size_t j = j0; j < j1; ++j) {
          const std::size_t ij = base + j;
          double g = p.linear_cost[ij] + rterm;
          if (mig > 0.0) {
            const double e2 = ws.eps2_cache[j];
            g += mig / ws.tau_cache[j] *
                 std::log((ws.x[ij] + e2) / (p.prev[ij] + e2));
          }
          const double rd = g - ws.delta[ij] - ws.theta[j] - rex + kap;
          ws.r_dual[ij] = rd;
          rmax = std::max(rmax, std::abs(rd));
          comp_part += ws.x[ij] * ws.delta[ij];
        }
      }
      double sth = 0.0;
      for (std::size_t j = j0; j < j1; ++j) {
        sth += ws.slack_demand[j] * ws.theta[j];
      }
      sc[0] = rmax;
      sc[1] = comp_part;
      sc[2] = sth;
    });
    double dual_resid_norm = 0.0;
    double comp_sum = 0.0;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      dual_resid_norm = std::max(
          dual_resid_norm, ws.chunk_sc[c * NewtonWorkspace::kChunkScalars]);
    }
    for (std::size_t c = 0; c < n_chunks; ++c) {
      comp_sum += ws.chunk_sc[c * NewtonWorkspace::kChunkScalars + 1];
    }
    for (std::size_t c = 0; c < n_chunks; ++c) {
      comp_sum += ws.chunk_sc[c * NewtonWorkspace::kChunkScalars + 2];
    }
    if (has_comp) {
      for (std::size_t i = 0; i < kI; ++i) {
        comp_sum += ws.slack_comp[i] * ws.rho[i];
      }
    }
    if (has_cap) {
      for (std::size_t i = 0; i < kI; ++i) {
        comp_sum += ws.slack_cap[i] * ws.kappa[i];
      }
    }
    const double comp_avg = comp_sum / static_cast<double>(total_constraints);
    exit_comp_avg = comp_avg / cost_scale;
    exit_dual_resid = dual_resid_norm / cost_scale;

    if (log::enabled(log::Level::kDebug)) {
      log::emit(log::Level::kDebug,
                "pd iter %3d: mu=%.3e comp=%.3e rdual=%.3e", iter, mu,
                comp_avg, dual_resid_norm / cost_scale);
    }
    const double score = std::max(comp_avg / cost_scale,
                                  dual_resid_norm / cost_scale);
    // A poisoned iterate (NaN/∞ reaching x through a bad Newton step) can
    // neither improve the best point nor satisfy the convergence test; bail
    // out to the best finite iterate instead of spinning the budget down.
    if (!std::isfinite(score)) break;
    if (score < best_score) {
      best_score = score;
      best_comp_avg = exit_comp_avg;
      best_dual_resid = exit_dual_resid;
      ws.best_x = ws.x;
      ws.best_delta = ws.delta;
      ws.best_theta = ws.theta;
      ws.best_rho = ws.rho;
      ws.best_kappa = ws.kappa;
    }
    if (comp_avg <= options_.final_mu * cost_scale &&
        dual_resid_norm <= 1e-7 * cost_scale) {
      converged = true;
      break;
    }
    // Divergence guard: once numerical accuracy is exhausted the dual
    // residual starts growing; stop and return the best point.
    if (score > 1e4 * best_score && best_score < 1e-5) break;

    // Target barrier parameter: aggressive but safeguarded decrease. (This
    // is also the warm start's μ-continuation: on a warm start comp_avg is
    // the carried point's duality-gap estimate, not kInitialMu.)
    const double mu_next = std::max(kMuShrink * comp_avg,
                                    0.1 * options_.final_mu * cost_scale);
    if (mu_next < mu) ++mu_steps;
    mu = mu_next;

    // --- Newton matrix pieces + Schur accumulators -------------------------
    const std::uint64_t assembly_t0 = obs::steady_clock_ns();
    beta_sum = 0.0;
    for (std::size_t i = 0; i < kI; ++i) {
      const double eta_i = ws.eta_cache[i];
      double h = 0.0;
      if (p.recon_price[i] > 0.0 && eta_i > 0.0) {
        h = p.recon_price[i] / eta_i / (ws.slack_agg[i] + p.eps1);
      }
      if (has_cap) h += ws.kappa[i] / ws.slack_cap[i];
      const double b = has_comp ? ws.rho[i] / ws.slack_comp[i] : 0.0;
      ws.beta[i] = b;
      ws.mvec[i] = h + b;
      beta_sum += b;
    }
    for_chunks([&](std::size_t c) {
      const std::size_t j0 = chunk_begin(c);
      const std::size_t j1 = chunk_end(c);
      double* ia = ws.chunk_ia.data() + c * kI;        // r_i partials
      double* ib = ws.chunk_ib.data() + c * kI;        // Q_i partials
      double* pp = ws.chunk_pp.data() + c * kI * kI;   // P partials (lower)
      double* sc = ws.chunk_sc.data() + c * NewtonWorkspace::kChunkScalars;
      std::fill(ib, ib + kI, 0.0);
      std::fill(pp, pp + kI * kI, 0.0);
      for (std::size_t j = j0; j < j1; ++j) ws.col_sum[j] = 0.0;
      for (std::size_t i = 0; i < kI; ++i) {
        const std::size_t base = i * kJ;
        const double mig = p.migration_price[i];
        double rpart = 0.0;
        for (std::size_t j = j0; j < j1; ++j) {
          const std::size_t ij = base + j;
          double d = ws.delta[ij] / ws.x[ij];
          if (mig > 0.0) {
            d += mig / ws.tau_cache[j] / (ws.x[ij] + ws.eps2_cache[j]);
          }
          ws.diag[ij] = d;
          const double b = 1.0 / d;
          ws.inv_diag[ij] = b;
          rpart += b;
          ws.col_sum[j] += b;
        }
        ia[i] = rpart;
      }
      double total_part = 0.0;
      double r2_part = 0.0;
      for (std::size_t j = j0; j < j1; ++j) {
        const double t = ws.theta[j] / ws.slack_demand[j];
        ws.tj[j] = t;
        const double d = 1.0 + ws.col_sum[j] * t;
        ws.dj[j] = d;
        const double w = t / d;
        ws.wj[j] = w;
        total_part += ws.col_sum[j];
        const double wc = w * ws.col_sum[j];
        ws.wc[j] = wc;
        r2_part += ws.col_sum[j] * wc;
      }
      linalg::syrk_scaled_acc(ws.inv_diag.data(), kI, kJ, ws.wj.data(), j0,
                              j1, pp, kI);
      linalg::gemv_cols_acc(ws.inv_diag.data(), kI, kJ, ws.wc.data(), j0, j1,
                            ib);
      sc[0] = total_part;
      sc[1] = r2_part;
    });
    // Chunk-ordered reduction of r_i, s, Q_i, R and P.
    linalg::fill(ws.row_sum, 0.0);
    linalg::fill(ws.q_vec, 0.0);
    double total_sum = 0.0;
    double r_cap = 0.0;
    ws.p_mat.set_zero();
    double* pm = ws.p_mat.mutable_data();
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const double* ia = ws.chunk_ia.data() + c * kI;
      const double* ib = ws.chunk_ib.data() + c * kI;
      const double* pp = ws.chunk_pp.data() + c * kI * kI;
      const double* sc = ws.chunk_sc.data() + c * NewtonWorkspace::kChunkScalars;
      for (std::size_t i = 0; i < kI; ++i) ws.row_sum[i] += ia[i];
      for (std::size_t i = 0; i < kI; ++i) ws.q_vec[i] += ib[i];
      for (std::size_t idx = 0; idx < kI * kI; ++idx) pm[idx] += pp[idx];
      total_sum += sc[0];
      r_cap += sc[1];
    }
    linalg::symmetrize_from_lower(pm, kI, kI);
    assembly_ns += obs::steady_clock_ns() - assembly_t0;

    // --- (I+1)² Schur system over [u_1..u_I, e] ---------------------------
    double rb = 0.0;  // Σ_i r_i β_i
    double qb = 0.0;  // Σ_i Q_i β_i
    for (std::size_t i = 0; i < kI; ++i) {
      rb += ws.row_sum[i] * ws.beta[i];
      qb += ws.q_vec[i] * ws.beta[i];
    }
    for (std::size_t i = 0; i < kI; ++i) {
      double pb = 0.0;  // (P β)_i
      for (std::size_t i2 = 0; i2 < kI; ++i2) {
        pb += ws.p_mat(i, i2) * ws.beta[i2];
      }
      for (std::size_t i2 = 0; i2 < kI; ++i2) {
        double v = -ws.row_sum[i] * ws.beta[i2] -
                   ws.mvec[i2] * ws.p_mat(i, i2) + ws.beta[i2] * ws.q_vec[i];
        if (i == i2) v += 1.0 + ws.row_sum[i] * ws.mvec[i];
        ws.s_mat(i, i2) = v;
      }
      ws.s_mat(i, kI) = ws.row_sum[i] * (beta_sum - ws.beta[i]) + pb -
                        ws.q_vec[i] * beta_sum;
    }
    for (std::size_t i2 = 0; i2 < kI; ++i2) {
      ws.s_mat(kI, i2) = ws.row_sum[i2] * ws.mvec[i2] -
                         total_sum * ws.beta[i2] -
                         ws.mvec[i2] * ws.q_vec[i2] + ws.beta[i2] * r_cap;
    }
    ws.s_mat(kI, kI) =
        1.0 - rb + total_sum * beta_sum + qb - r_cap * beta_sum;
    {
      const std::uint64_t factor_t0 = obs::steady_clock_ns();
      const bool factored =
          ws.lu.factor(ws.s_mat) && !fault_fire(FaultSite::kSchurSingular);
      factor_ns += obs::steady_clock_ns() - factor_t0;
      if (!factored) break;  // fall back to the best iterate
    }

    // --- RHS: −r_dual + (μ/x − δ) + Σ_j a_j (μ/s_j − θ_j)
    //          + Σ_i (e−u_i)(μ/p_i − ρ_i) − Σ_i u_i (μ/q_i − κ_i). ---------
    double comp_corr_total = 0.0;  // Σ_i (μ/p_i − ρ_i)
    linalg::fill(ws.comp_corr, 0.0);
    if (has_comp) {
      for (std::size_t i = 0; i < kI; ++i) {
        ws.comp_corr[i] = mu / ws.slack_comp[i] - ws.rho[i];
        comp_corr_total += ws.comp_corr[i];
      }
    }
    for (std::size_t i = 0; i < kI; ++i) {
      const double cap_corr =
          has_cap ? mu / ws.slack_cap[i] - ws.kappa[i] : 0.0;
      const double comp_term =
          has_comp ? comp_corr_total - ws.comp_corr[i] : 0.0;
      ws.rhs_i_term[i] = comp_term - cap_corr;
    }
    for_chunks([&](std::size_t c) {
      const std::size_t j0 = chunk_begin(c);
      const std::size_t j1 = chunk_end(c);
      for (std::size_t i = 0; i < kI; ++i) {
        const std::size_t base = i * kJ;
        const double iterm = ws.rhs_i_term[i];
        for (std::size_t j = j0; j < j1; ++j) {
          const std::size_t ij = base + j;
          ws.rhs[ij] = -ws.r_dual[ij] + (mu / ws.x[ij] - ws.delta[ij]) +
                       (mu / ws.slack_demand[j] - ws.theta[j]) + iterm;
        }
      }
    });

    apply_inverse(ws.rhs, ws.dx, /*accumulate=*/false);
    // Two rounds of iterative refinement keep the Newton direction
    // accurate when the reduced system mixes O(z/s) and O(1) scales.
    for (int refine = 0; refine < 2; ++refine) {
      apply_matrix_residual(ws.dx, ws.rhs, ws.residual);
      apply_inverse(ws.residual, ws.dx, /*accumulate=*/true);
    }
    if (fault_fire(FaultSite::kNewtonNan)) [[unlikely]] {
      ws.dx[0] = std::numeric_limits<double>::quiet_NaN();
    }

    // --- Dual steps + fraction-to-boundary step lengths --------------------
    const double ftb = 0.995;
    for_chunks([&](std::size_t c) {
      const std::size_t j0 = chunk_begin(c);
      const std::size_t j1 = chunk_end(c);
      double* ia = ws.chunk_ia.data() + c * kI;  // dx_agg partials
      double* sc = ws.chunk_sc.data() + c * NewtonWorkspace::kChunkScalars;
      double ap = 1.0;
      double ad = 1.0;
      for (std::size_t j = j0; j < j1; ++j) ws.dx_demand[j] = 0.0;
      for (std::size_t i = 0; i < kI; ++i) {
        const std::size_t base = i * kJ;
        double acc = 0.0;
        for (std::size_t j = j0; j < j1; ++j) {
          const std::size_t ij = base + j;
          const double d = ws.dx[ij];
          acc += d;
          ws.dx_demand[j] += d;
          const double dd =
              (mu - ws.x[ij] * ws.delta[ij] - ws.delta[ij] * d) / ws.x[ij];
          ws.ddelta[ij] = dd;
          if (d < 0.0) ap = std::min(ap, -ws.x[ij] / d);
          if (dd < 0.0) ad = std::min(ad, -ws.delta[ij] / dd);
        }
        ia[i] = acc;
      }
      for (std::size_t j = j0; j < j1; ++j) {
        const double dxd = ws.dx_demand[j];
        const double dt = (mu - ws.slack_demand[j] * ws.theta[j] -
                           ws.theta[j] * dxd) /
                          ws.slack_demand[j];
        ws.dtheta[j] = dt;
        if (dxd < 0.0) ap = std::min(ap, -ws.slack_demand[j] / dxd);
        if (dt < 0.0) ad = std::min(ad, -ws.theta[j] / dt);
      }
      sc[0] = ap;
      sc[1] = ad;
    });
    linalg::fill(ws.dx_agg, 0.0);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const double* ia = ws.chunk_ia.data() + c * kI;
      for (std::size_t i = 0; i < kI; ++i) ws.dx_agg[i] += ia[i];
    }
    const double dx_total = linalg::sum(ws.dx_agg);
    double alpha_p = 1.0;
    double alpha_d = 1.0;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const double* sc = ws.chunk_sc.data() + c * NewtonWorkspace::kChunkScalars;
      alpha_p = std::min(alpha_p, sc[0]);
      alpha_d = std::min(alpha_d, sc[1]);
    }
    if (has_comp) {
      for (std::size_t i = 0; i < kI; ++i) {
        const double ds = dx_total - ws.dx_agg[i];
        ws.drho[i] = (mu - ws.slack_comp[i] * ws.rho[i] - ws.rho[i] * ds) /
                     ws.slack_comp[i];
        if (ds < 0.0) alpha_p = std::min(alpha_p, -ws.slack_comp[i] / ds);
        if (ws.drho[i] < 0.0) {
          alpha_d = std::min(alpha_d, -ws.rho[i] / ws.drho[i]);
        }
      }
    }
    if (has_cap) {
      for (std::size_t i = 0; i < kI; ++i) {
        const double dq = -ws.dx_agg[i];
        ws.dkappa[i] = (mu - ws.slack_cap[i] * ws.kappa[i] -
                        ws.kappa[i] * dq) /
                       ws.slack_cap[i];
        if (ws.dx_agg[i] > 0.0) {
          alpha_p = std::min(alpha_p, ws.slack_cap[i] / ws.dx_agg[i]);
        }
        if (ws.dkappa[i] < 0.0) {
          alpha_d = std::min(alpha_d, -ws.kappa[i] / ws.dkappa[i]);
        }
      }
    }
    alpha_p = std::min(1.0, ftb * alpha_p);
    alpha_d = std::min(1.0, ftb * alpha_d);

    // --- Step + slack refresh, fused into one pass -------------------------
    for_chunks([&](std::size_t c) {
      const std::size_t j0 = chunk_begin(c);
      const std::size_t j1 = chunk_end(c);
      double* ia = ws.chunk_ia.data() + c * kI;  // new X_i partials
      for (std::size_t j = j0; j < j1; ++j) ws.slack_demand[j] = 0.0;
      for (std::size_t i = 0; i < kI; ++i) {
        const std::size_t base = i * kJ;
        double acc = 0.0;
        for (std::size_t j = j0; j < j1; ++j) {
          const std::size_t ij = base + j;
          ws.x[ij] += alpha_p * ws.dx[ij];
          ws.delta[ij] += alpha_d * ws.ddelta[ij];
          const double v = ws.x[ij];
          acc += v;
          ws.slack_demand[j] += v;
        }
        ia[i] = acc;
      }
      for (std::size_t j = j0; j < j1; ++j) {
        ws.theta[j] += alpha_d * ws.dtheta[j];
        ws.slack_demand[j] -= p.demand[j];
      }
    });
    if (has_comp) linalg::axpy(alpha_d, ws.drho, ws.rho);
    if (has_cap) linalg::axpy(alpha_d, ws.dkappa, ws.kappa);
    linalg::fill(ws.slack_agg, 0.0);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const double* ia = ws.chunk_ia.data() + c * kI;
      for (std::size_t i = 0; i < kI; ++i) ws.slack_agg[i] += ia[i];
    }
    if (has_comp) {
      const double total = linalg::sum(ws.slack_agg);
      for (std::size_t i = 0; i < kI; ++i) {
        ws.slack_comp[i] =
            total - ws.slack_agg[i] - lambda_total + p.capacity[i];
      }
    }
    if (has_cap) {
      for (std::size_t i = 0; i < kI; ++i) {
        ws.slack_cap[i] = p.capacity[i] - ws.slack_agg[i];
      }
    }
  }

  sol.x = converged ? ws.x : ws.best_x;
  sol.theta = converged ? ws.theta : ws.best_theta;
  sol.rho = has_comp ? (converged ? ws.rho : ws.best_rho) : Vec(kI, 0.0);
  sol.kappa = has_cap ? (converged ? ws.kappa : ws.best_kappa) : Vec(kI, 0.0);
  sol.delta = converged ? ws.delta : ws.best_delta;
  sol.objective_value = p.objective(sol.x, ws.prev_agg);
  sol.newton_iterations = iter;
  sol.stats.newton_iterations = iter;
  sol.stats.mu_steps = mu_steps;
  sol.stats.kkt_comp_avg = converged ? exit_comp_avg : best_comp_avg;
  sol.stats.kkt_dual_residual = converged ? exit_dual_resid : best_dual_resid;
  SolverMetrics& sm = SolverMetrics::get();
  sm.solves.add();
  sm.newton_iterations.add(static_cast<std::uint64_t>(iter));
  if (warm) sm.warm_starts.add();
  if (sol.stats.warm_fallback) sm.warm_fallbacks.add();
  sm.assembly_seconds.add(static_cast<double>(assembly_ns) * 1e-9);
  sm.factor_seconds.add(static_cast<double>(factor_ns) * 1e-9);
  sm.solve_seconds.add(
      static_cast<double>(obs::steady_clock_ns() - solve_t0) * 1e-9);
  // A best-iterate fallback with a small KKT score is still a usable
  // optimum; only report failure when even the best point is poor.
  if (converged) {
    sol.status = SolveStatus::kOptimal;
  } else if (best_score <= 1e-6) {
    sol.status = SolveStatus::kOptimal;
  } else {
    sol.status = SolveStatus::kIterationLimit;
  }
  // Remember the duals for the next slot's warm start (same-size assigns,
  // no allocation on reuse). Anything short of an optimal certificate is
  // not worth carrying.
  if (sol.status == SolveStatus::kOptimal) {
    ws.warm_delta = sol.delta;
    ws.warm_theta = sol.theta;
    ws.warm_rho = sol.rho;
    ws.warm_kappa = sol.kappa;
    ws.warm_valid = true;
  } else {
    ws.warm_valid = false;
  }
  return sol;
}

}  // namespace eca::solve
