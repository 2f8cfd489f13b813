#include "solve/ipm_lp.h"
#include "common/log.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/fault.h"
#include "linalg/envelope_cholesky.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eca::solve {

namespace {

constexpr double kFixedTol = 1e-12;
// Added to the normal matrix diagonal, scaled by (1 + μ).
constexpr double kRegularization = 1e-10;

// Cached handles into the global metrics registry (same contract as the
// Newton solver's SolverMetrics: acquisition locks once, updates are sharded
// relaxed atomics and never allocate, so the IPM hot path stays
// allocation-free). Only integer counters are recorded
// here — their fixed-shard-order merge is exact for any assignment of solves
// to threads, keeping metric totals bit-identical across thread counts.
struct IpmMetrics {
  obs::Counter& solves;
  obs::Counter& iterations;

  static IpmMetrics& get() {
    static IpmMetrics m{
        obs::MetricsRegistry::global().counter("ipm.solves"),
        obs::MetricsRegistry::global().counter("ipm.iterations")};
    return m;
  }
};

}  // namespace

// All solver state: the internal standard form, the iterate and scratch
// vectors, and the normal matrix with its factor. Everything is sized
// with assign()/clear() so buffers keep their capacity across solves — after
// the first solve of a given shape, subsequent solves do not allocate.
struct IpmWorkspace::Impl {
  // --- standard form: min c'x, Ax = b, 0 <= x, x_i <= u_i (i in U) ---------
  std::size_t n = 0;         // internal variable count (structurals + slacks)
  std::size_t m = 0;         // internal row count
  std::size_t n_struct = 0;  // columns [0, n_struct) are shifted structurals;
                             // [n_struct, n) are slacks (one entry each)
  Vec c;
  Vec b;
  Vec upper;  // +inf when unbounded above
  // Column-wise sparse A. The outer vector only ever grows; inner vectors
  // are cleared (capacity retained) and the first `n` reused per build.
  linalg::SparseColumns columns;
  std::size_t columns_in_use = 0;
  double objective_constant = 0.0;

  // Mapping back to the original problem.
  std::vector<std::ptrdiff_t> var_map;  // orig var -> internal idx (-1: fixed)
  Vec fixed_value;                      // orig var -> value when fixed
  Vec lower_shift;                      // orig var -> lower bound
  std::vector<std::ptrdiff_t> row_map;  // orig row -> internal row (-1: none)
  bool infeasible_constant_row = false;

  // --- build scratch -------------------------------------------------------
  Vec shift;
  std::vector<char> has_free;

  // --- iterate state and per-iteration scratch -----------------------------
  std::vector<std::size_t> upper_set;
  Vec x, z, y, w, v;
  Vec ax, aty, rb, rc, ru;
  Vec theta, g, rhs;
  Vec dx, dy, dz, dw, dv;
  Vec dx_aff, dz_aff, dw_aff, dv_aff;
  Vec rxz, rwv;
  Vec tg, atg, atdy;
  // A Theta A' and its factor; the envelope is analyzed once per build.
  linalg::EnvelopeCholesky normal;

  // --- best iterate inside the soft tolerance (numerical-error fallback) --
  Vec best_x, best_y;
};

IpmWorkspace::IpmWorkspace() : impl_(std::make_unique<Impl>()) {}
IpmWorkspace::~IpmWorkspace() = default;
IpmWorkspace::IpmWorkspace(IpmWorkspace&&) noexcept = default;
IpmWorkspace& IpmWorkspace::operator=(IpmWorkspace&&) noexcept = default;

namespace {

using Impl = IpmWorkspace::Impl;

void build_standard_form(const LpProblem& lp, Impl& sf) {
  sf.n = 0;
  sf.m = 0;
  sf.objective_constant = 0.0;
  sf.infeasible_constant_row = false;
  sf.var_map.assign(lp.num_vars, -1);
  sf.fixed_value.assign(lp.num_vars, 0.0);
  sf.lower_shift.assign(lp.num_vars, 0.0);
  sf.row_map.assign(lp.num_rows, -1);
  sf.c.clear();
  sf.b.clear();
  sf.upper.clear();
  for (std::size_t j = 0; j < sf.columns_in_use; ++j) sf.columns[j].clear();
  // Hands out cleared inner vectors in order, growing the outer vector only
  // past the high-water mark of previous builds.
  auto next_column = [&sf]() {
    if (sf.n > sf.columns.size()) sf.columns.emplace_back();
    ECA_DCHECK(sf.n <= sf.columns.size());
  };

  for (std::size_t j = 0; j < lp.num_vars; ++j) {
    const double lb = lp.var_lower[j];
    const double ub = lp.var_upper[j];
    ECA_CHECK(std::isfinite(lb), "IPM requires finite lower bounds");
    ECA_CHECK(ub >= lb - kFixedTol, "variable bounds crossed");
    sf.lower_shift[j] = lb;
    if (ub - lb <= kFixedTol) {
      sf.fixed_value[j] = lb;
      continue;
    }
    sf.var_map[j] = static_cast<std::ptrdiff_t>(sf.n);
    sf.c.push_back(lp.objective[j]);
    sf.upper.push_back(ub - lb);
    ++sf.n;
    next_column();
    sf.objective_constant += lp.objective[j] * lb;
  }
  sf.n_struct = sf.n;
  for (std::size_t j = 0; j < lp.num_vars; ++j) {
    if (sf.var_map[j] < 0) sf.objective_constant += lp.objective[j] * sf.fixed_value[j];
  }

  // Per-row constant shift from fixed variables and lower-bound shifts.
  sf.shift.assign(lp.num_rows, 0.0);
  sf.has_free.assign(lp.num_rows, 0);
  for (const auto& t : lp.elements) {
    if (sf.var_map[t.col] >= 0) {
      sf.shift[t.row] += t.value * sf.lower_shift[t.col];
      sf.has_free[t.row] = 1;
    } else {
      sf.shift[t.row] += t.value * sf.fixed_value[t.col];
    }
  }

  for (std::size_t r = 0; r < lp.num_rows; ++r) {
    const double lo = lp.row_lower[r];
    const double hi = lp.row_upper[r];
    if (lo == -kInf && hi == kInf) continue;  // vacuous
    const double lo_adj = lo == -kInf ? -kInf : lo - sf.shift[r];
    const double hi_adj = hi == kInf ? kInf : hi - sf.shift[r];
    if (!sf.has_free[r]) {
      // Constant row: either trivially satisfied or proves infeasibility.
      if (lo_adj > 1e-9 || hi_adj < -1e-9) sf.infeasible_constant_row = true;
      continue;
    }
    const std::size_t row = sf.m++;
    sf.row_map[r] = static_cast<std::ptrdiff_t>(row);
    if (lo != -kInf && hi != kInf && hi_adj - lo_adj <= kFixedTol) {
      sf.b.push_back(lo_adj);  // equality row, no slack
    } else if (lo != -kInf) {
      // a'x - s = lo, s in [0, hi - lo] (or +inf).
      sf.b.push_back(lo_adj);
      sf.c.push_back(0.0);
      sf.upper.push_back(hi == kInf ? kInf : hi_adj - lo_adj);
      ++sf.n;
      next_column();
      sf.columns[sf.n - 1].push_back({row, -1.0});
    } else {
      // a'x + s = hi, s >= 0.
      sf.b.push_back(hi_adj);
      sf.c.push_back(0.0);
      sf.upper.push_back(kInf);
      ++sf.n;
      next_column();
      sf.columns[sf.n - 1].push_back({row, 1.0});
    }
  }
  sf.columns_in_use = sf.n;

  for (const auto& t : lp.elements) {
    const std::ptrdiff_t col = sf.var_map[t.col];
    const std::ptrdiff_t row = sf.row_map[t.row];
    if (col >= 0 && row >= 0) {
      sf.columns[static_cast<std::size_t>(col)].push_back(
          {static_cast<std::size_t>(row), t.value});
    }
  }
  // Columns past sf.n are empty leftovers of larger builds.
  sf.normal.analyze(sf.columns, sf.n, sf.m);
}

// y = A x (column-wise A).
void col_multiply(const Impl& sf, const Vec& x, Vec& out) {
  out.assign(sf.m, 0.0);
  for (std::size_t j = 0; j < sf.n; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    for (const auto& [r, v] : sf.columns[j]) out[r] += v * xj;
  }
}

// out = A^T y.
void col_multiply_transpose(const Impl& sf, const Vec& y, Vec& out) {
  out.assign(sf.n, 0.0);
  for (std::size_t j = 0; j < sf.n; ++j) {
    double acc = 0.0;
    for (const auto& [r, v] : sf.columns[j]) acc += v * y[r];
    out[j] = acc;
  }
}

}  // namespace

double normal_factor_work(const LpProblem& lp, double cap) {
  linalg::SparseColumns columns(lp.num_vars);
  for (const auto& t : lp.elements) columns[t.col].push_back({t.row, t.value});
  std::vector<std::size_t> first;
  linalg::EnvelopeCholesky::envelope(columns, columns.size(), lp.num_rows,
                                     first);
  return linalg::EnvelopeCholesky::factor_work(first, cap);
}

LpSolution InteriorPointLp::solve(const LpProblem& lp) const {
  IpmWorkspace ws;
  return solve(lp, ws);
}

LpSolution InteriorPointLp::solve(const LpProblem& lp, IpmWorkspace& ws) const {
  LpSolution sol;
  solve_into(lp, ws, sol);
  return sol;
}

void InteriorPointLp::solve_into(const LpProblem& lp, IpmWorkspace& ws,
                                 LpSolution& sol) const {
  ECA_TRACE_SPAN("ipm_solve");
  IpmMetrics::get().solves.add(1);
  solve_attempt(lp, ws, sol);
  if (fault_fire(FaultSite::kIpmFail)) [[unlikely]] {
    sol.status = SolveStatus::kNumericalError;
  }
}

void InteriorPointLp::solve_attempt(const LpProblem& lp, IpmWorkspace& ws,
                                    LpSolution& sol) const {
  sol.status = SolveStatus::kNumericalError;
  sol.x.clear();
  sol.row_duals.clear();
  sol.objective_value = 0.0;
  sol.iterations = 0;
  sol.primal_residual = 0.0;
  sol.dual_residual = 0.0;
  sol.gap = 0.0;

  const std::string problem_error = lp.validate();
  ECA_CHECK(problem_error.empty(), problem_error);

  Impl& sf = *ws.impl_;
  build_standard_form(lp, sf);
  if (sf.infeasible_constant_row) {
    sol.status = SolveStatus::kPrimalInfeasible;
    return;
  }

  const std::size_t n = sf.n;
  const std::size_t m = sf.m;

  // Trivial case: no coupling rows — each variable sits at its cheaper bound.
  if (m == 0) {
    sol.x.assign(lp.num_vars, 0.0);
    sol.row_duals.assign(lp.num_rows, 0.0);
    double obj = 0.0;
    for (std::size_t j = 0; j < lp.num_vars; ++j) {
      double value = 0.0;
      if (sf.var_map[j] < 0) {
        value = sf.fixed_value[j];
      } else if (lp.objective[j] >= 0.0) {
        value = lp.var_lower[j];
      } else if (lp.var_upper[j] < kInf) {
        value = lp.var_upper[j];
      } else {
        sol.status = SolveStatus::kDualInfeasible;
        return;
      }
      sol.x[j] = value;
      obj += lp.objective[j] * value;
    }
    sol.objective_value = obj;
    sol.status = SolveStatus::kOptimal;
    return;
  }

  sf.upper_set.clear();
  for (std::size_t j = 0; j < n; ++j) {
    if (sf.upper[j] < kInf) sf.upper_set.push_back(j);
  }
  const auto& upper_set = sf.upper_set;

  const double b_scale = 1.0 + linalg::norm_inf(sf.b);
  const double c_scale = 1.0 + linalg::norm_inf(sf.c);

  // Cold starting point: strictly interior, magnitude matched to the data.
  Vec& x = sf.x;
  Vec& z = sf.z;
  Vec& y = sf.y;
  Vec& w = sf.w;
  Vec& v = sf.v;
  x.assign(n, 0.0);
  z.assign(n, 0.0);
  y.assign(m, 0.0);
  w.assign(n, 0.0);
  v.assign(n, 0.0);  // only entries in upper_set are meaningful
  for (std::size_t j = 0; j < n; ++j) {
    const double cap = sf.upper[j] < kInf ? sf.upper[j] / 2.0 : kInf;
    x[j] = std::min(b_scale, cap > 0.0 ? cap : b_scale);
    if (x[j] <= 0.0) x[j] = 1e-4;
    z[j] = std::max(1.0, std::abs(sf.c[j]));
  }
  for (std::size_t j : upper_set) {
    w[j] = sf.upper[j] - x[j];
    if (w[j] <= 0.0) {
      x[j] = sf.upper[j] / 2.0;
      w[j] = sf.upper[j] - x[j];
    }
    v[j] = 1.0;
  }

  const std::size_t comp_dim = n + upper_set.size();

  auto duality_mu = [&] {
    double acc = linalg::dot(x, z);
    for (std::size_t j : upper_set) acc += w[j] * v[j];
    return acc / static_cast<double>(comp_dim);
  };

  double mu = duality_mu();

  Vec& ax = sf.ax;
  Vec& aty = sf.aty;
  Vec& rb = sf.rb;
  Vec& rc = sf.rc;
  Vec& ru = sf.ru;
  Vec& theta = sf.theta;
  Vec& g = sf.g;
  Vec& rhs = sf.rhs;
  Vec& dx = sf.dx;
  Vec& dy = sf.dy;
  Vec& dz = sf.dz;
  Vec& dw = sf.dw;
  Vec& dv = sf.dv;
  Vec& dx_aff = sf.dx_aff;
  Vec& dz_aff = sf.dz_aff;
  Vec& dw_aff = sf.dw_aff;
  Vec& dv_aff = sf.dv_aff;
  Vec& rxz = sf.rxz;
  Vec& rwv = sf.rwv;
  ax.assign(m, 0.0);
  aty.assign(n, 0.0);
  rb.assign(m, 0.0);
  rc.assign(n, 0.0);
  ru.assign(n, 0.0);
  theta.assign(n, 0.0);
  g.assign(n, 0.0);
  rhs.assign(m, 0.0);
  dx.assign(n, 0.0);
  dy.assign(m, 0.0);
  dz.assign(n, 0.0);
  dw.assign(n, 0.0);
  dv.assign(n, 0.0);
  dx_aff.assign(n, 0.0);
  dz_aff.assign(n, 0.0);
  dw_aff.assign(n, 0.0);
  dv_aff.assign(n, 0.0);
  rxz.assign(n, 0.0);
  rwv.assign(n, 0.0);
  linalg::EnvelopeCholesky& normal = sf.normal;

  // Best iterate whose residuals and gap all sit inside the soft tolerance
  // (see the fallback after the loop). Sized up front so that recording it
  // never allocates in a steady-state resolve.
  const double soft = 100.0 * options_.tolerance;
  sf.best_x.resize(n);
  sf.best_y.resize(m);
  int best_iter = -1;
  double best_worst = soft;
  double best_primal = 0.0;
  double best_dual = 0.0;
  double best_gap = 0.0;

  auto compute_residuals = [&] {
    col_multiply(sf, x, ax);
    for (std::size_t r = 0; r < m; ++r) rb[r] = sf.b[r] - ax[r];
    col_multiply_transpose(sf, y, aty);
    for (std::size_t j = 0; j < n; ++j) rc[j] = sf.c[j] - aty[j] - z[j];
    for (std::size_t j : upper_set) {
      rc[j] += v[j];
      ru[j] = sf.upper[j] - x[j] - w[j];
    }
  };

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    compute_residuals();
    const double rel_rb = linalg::norm_inf(rb) / b_scale;
    const double rel_rc = linalg::norm_inf(rc) / c_scale;
    const double rel_ru = linalg::norm_inf(ru) / b_scale;
    const double primal_obj = linalg::dot(sf.c, x);
    double dual_obj = linalg::dot(sf.b, y);
    for (std::size_t j : upper_set) dual_obj -= sf.upper[j] * v[j];
    const double rel_gap = std::abs(primal_obj - dual_obj) /
                           (1.0 + std::abs(primal_obj) + std::abs(dual_obj));
    if (log::enabled(log::Level::kDebug)) {
      log::emit(log::Level::kDebug,
                "ipm iter %3d: mu=%.3e rb=%.3e rc=%.3e gap=%.3e", iter, mu,
                rel_rb, rel_rc, rel_gap);
    }
    sol.iterations = iter;
    sol.primal_residual = std::max(rel_rb, rel_ru);
    sol.dual_residual = rel_rc;
    sol.gap = rel_gap;
    if (rel_rb < options_.tolerance && rel_rc < options_.tolerance &&
        rel_ru < options_.tolerance && rel_gap < options_.tolerance) {
      sol.status = SolveStatus::kOptimal;
      break;
    }
    if (rel_rb < best_worst && rel_ru < best_worst &&
        rel_rc < best_worst && rel_gap < best_worst) {
      std::copy(x.begin(), x.end(), sf.best_x.begin());
      std::copy(y.begin(), y.end(), sf.best_y.begin());
      best_iter = iter;
      best_worst = std::max({rel_rb, rel_ru, rel_rc, rel_gap});
      best_primal = sol.primal_residual;
      best_dual = sol.dual_residual;
      best_gap = sol.gap;
    }
    // Numerical floor: once the complementarity has collapsed far below the
    // residuals, no further progress is possible in double precision.
    // Accept a near-optimal point rather than grinding to a failure.
    if (mu < 1e-13) {
      if (rel_rb < soft && rel_rc < soft && rel_ru < soft && rel_gap < soft) {
        sol.status = SolveStatus::kOptimal;
      } else {
        sol.status = SolveStatus::kNumericalError;
      }
      break;
    }
    // Divergence heuristics.
    if (linalg::norm_inf(x) > 1e13) {
      sol.status = SolveStatus::kDualInfeasible;
      IpmMetrics::get().iterations.add(
          static_cast<std::uint64_t>(sol.iterations));
      return;
    }
    if (linalg::norm_inf(z) > 1e13 || linalg::norm_inf(y) > 1e13) {
      sol.status = SolveStatus::kPrimalInfeasible;
      IpmMetrics::get().iterations.add(
          static_cast<std::uint64_t>(sol.iterations));
      return;
    }

    // Scaling matrix Theta = (Z/X + V/W)^{-1}.
    for (std::size_t j = 0; j < n; ++j) theta[j] = z[j] / x[j];
    for (std::size_t j : upper_set) theta[j] += v[j] / w[j];
    for (std::size_t j = 0; j < n; ++j) theta[j] = 1.0 / theta[j];

    // Normal matrix A Theta A' with diagonal regularization; factor once per
    // iteration, reuse for predictor and corrector.
    double reg = kRegularization * (1.0 + mu);
    bool factorization_failed = false;
    for (;;) {
      normal.assemble(sf.columns, n, theta, reg);
      if (normal.factor()) break;
      reg = std::max(reg * 100.0, 1e-12);
      if (reg > 1e2) {
        factorization_failed = true;
        break;
      }
    }
    if (factorization_failed) {
      sol.status = SolveStatus::kNumericalError;
      break;
    }

    auto solve_direction = [&](const Vec& rxz_in, const Vec& rwv_in, Vec& odx,
                               Vec& ody, Vec& odz, Vec& odw, Vec& odv) {
      // g = X^{-1} rxz - W^{-1} rwv + W^{-1} V ru - rc
      for (std::size_t j = 0; j < n; ++j) g[j] = rxz_in[j] / x[j] - rc[j];
      for (std::size_t j : upper_set) {
        g[j] += (-rwv_in[j] + v[j] * ru[j]) / w[j];
      }
      // rhs = rb - A Theta g  (note dx = Theta (A'dy + g), A dx = rb)
      for (std::size_t j = 0; j < n; ++j) sf.tg[j] = theta[j] * g[j];
      col_multiply(sf, sf.tg, sf.atg);
      for (std::size_t r = 0; r < m; ++r) rhs[r] = rb[r] - sf.atg[r];
      std::copy(rhs.begin(), rhs.end(), ody.begin());
      normal.solve_in_place(ody);
      col_multiply_transpose(sf, ody, sf.atdy);
      for (std::size_t j = 0; j < n; ++j) {
        odx[j] = theta[j] * (sf.atdy[j] + g[j]);
        odz[j] = (rxz_in[j] - z[j] * odx[j]) / x[j];
      }
      for (std::size_t j : upper_set) {
        odw[j] = ru[j] - odx[j];
        odv[j] = (rwv_in[j] - v[j] * odw[j]) / w[j];
      }
    };
    sf.tg.assign(n, 0.0);
    sf.atg.assign(m, 0.0);
    sf.atdy.assign(n, 0.0);

    auto max_step = [&](const Vec& xx, const Vec& dxx, const Vec& ww,
                        const Vec& dww) {
      double alpha = 1.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (dxx[j] < 0.0) alpha = std::min(alpha, -xx[j] / dxx[j]);
      }
      for (std::size_t j : upper_set) {
        if (dww[j] < 0.0) alpha = std::min(alpha, -ww[j] / dww[j]);
      }
      return alpha;
    };

    // Predictor (affine scaling) direction.
    for (std::size_t j = 0; j < n; ++j) rxz[j] = -x[j] * z[j];
    for (std::size_t j : upper_set) rwv[j] = -w[j] * v[j];
    solve_direction(rxz, rwv, dx_aff, dy, dz_aff, dw_aff, dv_aff);
    const double alpha_p_aff = max_step(x, dx_aff, w, dw_aff);
    const double alpha_d_aff = max_step(z, dz_aff, v, dv_aff);

    double mu_aff = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      mu_aff += (x[j] + alpha_p_aff * dx_aff[j]) *
                (z[j] + alpha_d_aff * dz_aff[j]);
    }
    for (std::size_t j : upper_set) {
      mu_aff += (w[j] + alpha_p_aff * dw_aff[j]) *
                (v[j] + alpha_d_aff * dv_aff[j]);
    }
    mu_aff /= static_cast<double>(comp_dim);
    const double ratio = mu_aff / std::max(mu, 1e-300);
    const double sigma = std::clamp(ratio * ratio * ratio, 0.0, 1.0);

    // Corrector.
    for (std::size_t j = 0; j < n; ++j) {
      rxz[j] = sigma * mu - x[j] * z[j] - dx_aff[j] * dz_aff[j];
    }
    for (std::size_t j : upper_set) {
      rwv[j] = sigma * mu - w[j] * v[j] - dw_aff[j] * dv_aff[j];
    }
    solve_direction(rxz, rwv, dx, dy, dz, dw, dv);

    const double gamma = 0.9995;
    const double alpha_p = std::min(1.0, gamma * max_step(x, dx, w, dw));
    const double alpha_d = std::min(1.0, gamma * max_step(z, dz, v, dv));
    for (std::size_t j = 0; j < n; ++j) {
      x[j] += alpha_p * dx[j];
      z[j] += alpha_d * dz[j];
    }
    for (std::size_t r = 0; r < m; ++r) y[r] += alpha_d * dy[r];
    for (std::size_t j : upper_set) {
      w[j] += alpha_p * dw[j];
      v[j] += alpha_d * dv[j];
    }
    mu = duality_mu();
    if (iter + 1 == options_.max_iterations) {
      sol.status = SolveStatus::kIterationLimit;
    }
  }
  if (sol.status == SolveStatus::kNumericalError) {
    // A failed factorization late in the solve usually means the iterate is
    // already at the numerical floor; accept it when close to tolerance.
    if (sol.primal_residual < soft && sol.dual_residual < soft &&
        sol.gap < soft) {
      sol.status = SolveStatus::kOptimal;
    } else if (best_iter >= 0) {
      // The iterate stalled inside the soft tolerance and then blew up at
      // the numerical floor. A cold retry would replay the same
      // trajectory, so return the best iterate it passed through instead.
      ECA_LOG_WARN(
          "ipm: numerical error after %d iterations; returning iterate %d "
          "(primal=%.3e dual=%.3e gap=%.3e)",
          sol.iterations, best_iter, best_primal, best_dual, best_gap);
      std::copy(sf.best_x.begin(), sf.best_x.end(), x.begin());
      std::copy(sf.best_y.begin(), sf.best_y.end(), y.begin());
      sol.primal_residual = best_primal;
      sol.dual_residual = best_dual;
      sol.gap = best_gap;
      sol.status = SolveStatus::kOptimal;
    }
  } else if (sol.status != SolveStatus::kOptimal) {
    sol.status = SolveStatus::kIterationLimit;
  }
  IpmMetrics::get().iterations.add(static_cast<std::uint64_t>(sol.iterations));

  // Expand to the original variable space.
  sol.x.assign(lp.num_vars, 0.0);
  for (std::size_t j = 0; j < lp.num_vars; ++j) {
    if (sf.var_map[j] >= 0) {
      sol.x[j] = x[static_cast<std::size_t>(sf.var_map[j])] + sf.lower_shift[j];
    } else {
      sol.x[j] = sf.fixed_value[j];
    }
  }
  sol.row_duals.assign(lp.num_rows, 0.0);
  for (std::size_t r = 0; r < lp.num_rows; ++r) {
    if (sf.row_map[r] >= 0) {
      sol.row_duals[r] = y[static_cast<std::size_t>(sf.row_map[r])];
    }
  }
  sol.objective_value = linalg::dot(lp.objective, sol.x);
}

}  // namespace eca::solve
