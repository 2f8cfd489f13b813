#include "solve/pdhg_lp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>

#include "common/check.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eca::solve {
namespace {

using linalg::PartitionBounds;
using linalg::SparseMatrix;
using linalg::Triplet;

constexpr int kCheckEvery = 64;     // KKT evaluation / restart cadence
constexpr int kRuizIterations = 10;

// Internal form: min c'x  s.t.  K x {>=,=} q,  lb <= x <= ub.
struct Internal {
  std::size_t n = 0;
  std::size_t m = 0;
  Vec c, q, lb, ub;
  std::vector<Triplet> elements;
  // eq_mask[r] != 0 marks an equality row (free dual, no cone projection).
  std::vector<unsigned char> eq_mask;
  // internal row -> (original row, +1 / -1 multiplier on the dual)
  std::vector<std::pair<std::size_t, double>> row_origin;
  // Internal row index at each structural block start of the original LP
  // (the offline LP's per-slot staircase); used to align partitions.
  std::vector<std::size_t> row_blocks;
};

Internal build_internal(const LpProblem& lp) {
  Internal in;
  in.n = lp.num_vars;
  in.c = lp.objective;
  in.lb = lp.var_lower;
  in.ub = lp.var_upper;

  // Group original elements by row for fast duplication.
  std::vector<std::vector<std::pair<std::size_t, double>>> rows(lp.num_rows);
  for (const auto& t : lp.elements) rows[t.row].push_back({t.col, t.value});

  auto add_row = [&](std::size_t orig, double mult, double rhs, bool eq) {
    const std::size_t r = in.m++;
    in.q.push_back(rhs);
    in.eq_mask.push_back(eq ? 1 : 0);
    in.row_origin.push_back({orig, mult});
    for (const auto& [col, val] : rows[orig]) {
      in.elements.push_back({r, col, mult * val});
    }
  };

  std::size_t next_block = 0;
  for (std::size_t r = 0; r < lp.num_rows; ++r) {
    while (next_block < lp.row_block_starts.size() &&
           lp.row_block_starts[next_block] <= r) {
      in.row_blocks.push_back(in.m);
      ++next_block;
    }
    const double lo = lp.row_lower[r];
    const double hi = lp.row_upper[r];
    if (lo == -kInf && hi == kInf) continue;
    if (lo == hi) {
      add_row(r, 1.0, lo, /*eq=*/true);
    } else {
      if (lo != -kInf) add_row(r, 1.0, lo, /*eq=*/false);
      if (hi != kInf) add_row(r, -1.0, -hi, /*eq=*/false);
    }
  }
  return in;
}

struct KktScore {
  double primal = 0.0;
  double dual = 0.0;
  double gap = 0.0;
  double primal_obj = 0.0;
  [[nodiscard]] double worst() const { return std::max({primal, dual, gap}); }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

LpSolution PdhgLp::solve(const LpProblem& lp) const {
  obs::TraceSpan solve_span(obs::global_trace(), "lp_pdhg_solve");
  const auto solve_start = std::chrono::steady_clock::now();

  LpSolution sol;
  const std::string problem_error = lp.validate();
  ECA_CHECK(problem_error.empty(), problem_error);

  Internal in = build_internal(lp);
  const std::size_t n = in.n;
  const std::size_t m = in.m;

  // Objective normalization: the argmin is invariant under positive scaling
  // of c, but PDHG's primal/dual balance is not — a weighted objective (the
  // mu sweep scales dynamic costs by up to 1e3) would otherwise rail the
  // primal weight. Duals are scaled back on exit.
  const double cost_scale = std::max(1.0, linalg::norm_inf(in.c));
  for (auto& v : in.c) v /= cost_scale;

  if (m == 0 || n == 0) {
    // Bound-only problem: pick the cheaper bound per variable.
    sol.x.assign(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (in.c[j] >= 0.0) {
        if (in.lb[j] == -kInf) {
          sol.status = in.c[j] == 0.0 ? SolveStatus::kOptimal
                                      : SolveStatus::kDualInfeasible;
          if (sol.status != SolveStatus::kOptimal) return sol;
          sol.x[j] = 0.0;
        } else {
          sol.x[j] = in.lb[j];
        }
      } else if (in.ub[j] < kInf) {
        sol.x[j] = in.ub[j];
      } else {
        sol.status = SolveStatus::kDualInfeasible;
        return sol;
      }
    }
    sol.row_duals.assign(lp.num_rows, 0.0);
    sol.objective_value = linalg::dot(lp.objective, sol.x);
    sol.status = SolveStatus::kOptimal;
    return sol;
  }

  // One-time triplet -> CSR+CSC conversion; every later pass (Ruiz, power
  // iteration, the iteration kernels, KKT scoring) reuses it — scale()
  // keeps both representations in sync.
  SparseMatrix k(m, n, in.elements);
  in.elements.clear();
  in.elements.shrink_to_fit();

  // Parallelism: worker count capped by work volume (nonzeros per worker)
  // and hardware concurrency; 1 means the exact serial path. The
  // partitions are nonzero-balanced and never split a row/column, so every
  // output element is reduced over its own entries in fixed storage order
  // — results are bit-identical for every resolved thread count.
  const std::size_t threads = ThreadPool::resolve_lp_threads(
      options_.lp_threads, k.nnz(), options_.min_nnz_per_thread,
      /*cap_to_hardware=*/!options_.lp_oversubscribe);
  std::optional<ThreadPool> owned_pool;
  if (threads > 1) owned_pool.emplace(threads);
  ThreadPool* pool = owned_pool ? &*owned_pool : nullptr;
  // Align row partitions to the LP's structural blocks when there are
  // enough blocks to keep the partition balanced (the offline horizon LP
  // has one block per slot, so a worker's rows touch a contiguous,
  // at-most-two-slot slice of x).
  const bool align_blocks = in.row_blocks.size() >= threads;
  const PartitionBounds row_bounds = k.balanced_row_partition(
      threads, align_blocks ? in.row_blocks : std::vector<std::size_t>{});
  const PartitionBounds col_bounds = k.balanced_col_partition(threads);
  solve_span.set_arg("threads", static_cast<double>(threads));

  // --- Diagonal (Ruiz) rescaling ------------------------------------------
  const auto scale_start = std::chrono::steady_clock::now();
  Vec row_scale(m, 1.0), col_scale(n, 1.0);
  {
    obs::TraceSpan scale_span(obs::global_trace(), "lp_pdhg_scale");
    Vec rn(m), cn(n), dr(m), dc(n);
    for (int it = 0; it < kRuizIterations; ++it) {
      k.row_inf_norms(rn, pool, row_bounds);
      k.col_inf_norms(cn, pool, col_bounds);
      for (std::size_t r = 0; r < m; ++r) {
        dr[r] = rn[r] > 0.0 ? 1.0 / std::sqrt(rn[r]) : 1.0;
        row_scale[r] *= dr[r];
      }
      for (std::size_t j = 0; j < n; ++j) {
        dc[j] = cn[j] > 0.0 ? 1.0 / std::sqrt(cn[j]) : 1.0;
        col_scale[j] *= dc[j];
      }
      k.scale(dr, dc, pool, row_bounds, col_bounds);
    }
    {
      // Pock-Chambolle (α = 1) pass: rows and columns of the offline LPs
      // have very heterogeneous degrees (3-nonzero migration rows next to
      // (2J+1)-nonzero reconfiguration rows); dividing by the L1 norms
      // makes the scalar step size effective for every coordinate and
      // guarantees ||K|| <= 1 for the scaled matrix.
      k.row_power_sums(1.0, rn, pool, row_bounds);
      k.col_power_sums(1.0, cn, pool, col_bounds);
      for (std::size_t r = 0; r < m; ++r) {
        dr[r] = rn[r] > 0.0 ? 1.0 / std::sqrt(rn[r]) : 1.0;
        row_scale[r] *= dr[r];
      }
      for (std::size_t j = 0; j < n; ++j) {
        dc[j] = cn[j] > 0.0 ? 1.0 / std::sqrt(cn[j]) : 1.0;
        col_scale[j] *= dc[j];
      }
      k.scale(dr, dc, pool, row_bounds, col_bounds);
    }
  }
  // Scaled data: variables x = D_c x̂, duals y = D_r ŷ.
  Vec c_s(n), q_s(m), lb_s(n), ub_s(n);
  for (std::size_t j = 0; j < n; ++j) {
    c_s[j] = in.c[j] * col_scale[j];
    lb_s[j] = in.lb[j] == -kInf ? -kInf : in.lb[j] / col_scale[j];
    ub_s[j] = in.ub[j] == kInf ? kInf : in.ub[j] / col_scale[j];
  }
  for (std::size_t r = 0; r < m; ++r) q_s[r] = in.q[r] * row_scale[r];

  const double k_norm = std::max(
      k.spectral_norm_estimate(60, pool, row_bounds, col_bounds), 1e-12);
  const double scale_seconds = seconds_since(scale_start);
  const double eta = 0.998 / k_norm;
  double omega = 1.0;
  {
    const double cn = linalg::norm2(c_s);
    const double qn = linalg::norm2(q_s);
    if (cn > 1e-12 && qn > 1e-12) omega = std::clamp(cn / qn, 1e-2, 1e2);
  }

  Vec x(n, 0.0), y(m, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    // Move variables whose box excludes 0 onto the nearer bound (ub < 0
    // already implies a finite upper bound; validate() guarantees
    // lb <= ub, so the clamp is well-formed).
    if (lb_s[j] > 0.0 || ub_s[j] < 0.0) {
      x[j] = std::clamp(0.0, lb_s[j], ub_s[j]);
    }
  }
  Vec x_sum(n, 0.0), y_sum(m, 0.0);
  std::size_t avg_count = 0;

  Vec kx(m), kty(n), x_next(n), extrap(n);
  Vec x_unscaled(n), y_unscaled(m), row_value(m), reduced(n);
  // Hoisted out of the restart/check loop: the RHS/objective norms are
  // functions of the (fixed) unscaled data, and the average buffers are
  // reused across every check instead of reallocated.
  Vec x_avg(n), y_avg(m);
  double q_norm = 1.0;
  for (std::size_t r = 0; r < m; ++r) {
    q_norm = std::max(q_norm, std::abs(in.q[r]));
  }
  double c_norm = 1.0;
  for (std::size_t j = 0; j < n; ++j) {
    c_norm = std::max(c_norm, std::abs(in.c[j]));
  }

  // KKT residuals in the ORIGINAL (unscaled) space. The two matvecs are
  // partitioned over the pool; every cross-element reduction (max, sums)
  // stays on the driving thread so scores are thread-count independent.
  auto evaluate = [&](const Vec& xs, const Vec& ys) {
    for (std::size_t j = 0; j < n; ++j) x_unscaled[j] = xs[j] * col_scale[j];
    for (std::size_t r = 0; r < m; ++r) y_unscaled[r] = ys[r] * row_scale[r];
    // Row values with the ORIGINAL matrix = D_r^{-1} K̂ D_c^{-1} x.
    k.multiply(xs, row_value, pool, row_bounds);  // = D_r (K x)
    KktScore score;
    for (std::size_t r = 0; r < m; ++r) {
      const double value = row_value[r] / row_scale[r];
      const double gap = in.q[r] - value;
      const double viol = in.eq_mask[r] ? std::abs(gap) : std::max(0.0, gap);
      score.primal = std::max(score.primal, viol / q_norm);
    }
    // Reduced costs: c - K'y (original space): K'y = D_c^{-1} K̂' D_r^{-1} y
    // = D_c^{-1} K̂' ŷ.
    k.multiply_transpose(ys, kty, pool, col_bounds);
    double dual_obj = 0.0;
    for (std::size_t r = 0; r < m; ++r) dual_obj += in.q[r] * y_unscaled[r];
    for (std::size_t j = 0; j < n; ++j) {
      reduced[j] = in.c[j] - kty[j] / col_scale[j];
      double rc = reduced[j];
      if (rc > 0.0) {
        if (in.lb[j] == -kInf) {
          score.dual = std::max(score.dual, rc / c_norm);
        } else {
          dual_obj += in.lb[j] * rc;
        }
      } else if (rc < 0.0) {
        if (in.ub[j] == kInf) {
          score.dual = std::max(score.dual, -rc / c_norm);
        } else {
          dual_obj += in.ub[j] * rc;
        }
      }
    }
    score.primal_obj = linalg::dot(in.c, x_unscaled);
    score.gap = std::abs(score.primal_obj - dual_obj) /
                (1.0 + std::abs(score.primal_obj) + std::abs(dual_obj));
    return score;
  };

  auto finish = [&](const Vec& xs, const Vec& ys, const KktScore& score,
                    int iters, SolveStatus status) {
    sol.status = status;
    sol.iterations = iters;
    sol.primal_residual = score.primal;
    sol.dual_residual = score.dual;
    sol.gap = score.gap;
    sol.x.assign(lp.num_vars, 0.0);
    for (std::size_t j = 0; j < n; ++j) sol.x[j] = xs[j] * col_scale[j];
    sol.row_duals.assign(lp.num_rows, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      const auto& [orig, mult] = in.row_origin[r];
      sol.row_duals[orig] += mult * ys[r] * row_scale[r] * cost_scale;
    }
    sol.objective_value = linalg::dot(lp.objective, sol.x);
  };

  // Local perf accounting, folded into the metrics registry once at exit by
  // this (driving) thread so totals stay bit-deterministic.
  double kernel_seconds = 0.0;
  double kkt_seconds = 0.0;
  std::uint64_t restarts = 0;
  int iterations_run = 0;

  const std::size_t col_parts = col_bounds.size() - 1;
  const std::size_t row_parts = row_bounds.size() - 1;
  const unsigned char* eq_mask = in.eq_mask.data();

  // Fused column pass: Aᵀ·y gathered per column, then the primal
  // projection/extrapolation/average update on the same range while it is
  // hot. Fused row pass: A·x̄ per row, then the dual ascent/projection/
  // average update. Writes of distinct parts are disjoint.
  auto column_pass = [&](std::size_t p) {
    const std::size_t j0 = col_bounds[p];
    const std::size_t j1 = col_bounds[p + 1];
    k.multiply_transpose_range(y, kty, j0, j1);
    const double tau = eta / omega;
    linalg::pdhg_primal_step(x.data(), kty.data(), c_s.data(), lb_s.data(),
                             ub_s.data(), tau, j0, j1, x_next.data(),
                             extrap.data(), x_sum.data());
  };
  auto row_pass = [&](std::size_t p) {
    const std::size_t r0 = row_bounds[p];
    const std::size_t r1 = row_bounds[p + 1];
    k.multiply_range(extrap, kx, r0, r1);
    const double sigma = eta * omega;
    linalg::pdhg_dual_step(y.data(), kx.data(), q_s.data(), eq_mask, sigma,
                           r0, r1, y_sum.data());
  };

  double restart_score = kInf;
  double previous_candidate_score = kInf;
  std::size_t since_restart = 0;
  KktScore best_score;
  Vec best_x = x, best_y = y;

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    const auto iter_start = std::chrono::steady_clock::now();
    if (pool != nullptr) {
      pool->run_indexed(col_parts, column_pass);
      pool->run_indexed(row_parts, row_pass);
    } else {
      for (std::size_t p = 0; p < col_parts; ++p) column_pass(p);
      for (std::size_t p = 0; p < row_parts; ++p) row_pass(p);
    }
    x.swap(x_next);
    ++avg_count;
    ++since_restart;
    iterations_run = iter + 1;
    kernel_seconds += seconds_since(iter_start);

    if ((iter + 1) % kCheckEvery != 0) continue;

    const auto kkt_start = std::chrono::steady_clock::now();
    const KktScore cur = evaluate(x, y);
    const double inv = 1.0 / static_cast<double>(avg_count);
    for (std::size_t j = 0; j < n; ++j) x_avg[j] = x_sum[j] * inv;
    for (std::size_t r = 0; r < m; ++r) y_avg[r] = y_sum[r] * inv;
    const KktScore avg = evaluate(x_avg, y_avg);
    kkt_seconds += seconds_since(kkt_start);

    const bool avg_better = avg.worst() < cur.worst();
    const KktScore& cand_score = avg_better ? avg : cur;
    const Vec& cand_x = avg_better ? x_avg : x;
    const Vec& cand_y = avg_better ? y_avg : y;

    if (log::enabled(log::Level::kDebug)) {
      log::emit(log::Level::kDebug,
                "pdhg iter %7d: primal=%.3e dual=%.3e gap=%.3e omega=%.2e",
                iter + 1, cand_score.primal, cand_score.dual, cand_score.gap,
                omega);
    }

    const double gate = options_.gate_on_dual_residual
                            ? cand_score.worst()
                            : std::max(cand_score.primal, cand_score.gap);
    if (gate < options_.tolerance) {
      finish(cand_x, cand_y, cand_score, iter + 1, SolveStatus::kOptimal);
      break;
    }
    best_score = cand_score;
    best_x = cand_x;
    best_y = cand_y;

    // Adaptive restart (PDLP-style): restart on sufficient decay of the KKT
    // score, or on necessary decay followed by a loss of progress.
    const double worst = cand_score.worst();
    const bool sufficient_decay = worst < 0.2 * restart_score;
    const bool necessary_decay =
        worst < 0.8 * restart_score && worst > previous_candidate_score;
    // Plateau guard: if neither criterion fires for a long stretch the
    // average drifts; restarting from the best candidate re-anchors it.
    const bool stagnation = since_restart >= 4096;
    previous_candidate_score = worst;
    if ((sufficient_decay || necessary_decay || stagnation) &&
        since_restart >= 64) {
      x = cand_x;
      y = cand_y;
      x_sum.assign(n, 0.0);
      y_sum.assign(m, 0.0);
      avg_count = 0;
      since_restart = 0;
      restart_score = worst;
      previous_candidate_score = kInf;
      ++restarts;
      // Primal-weight update: push effort toward the lagging residual. Box
      // LPs have a structurally zero dual residual, in which case the ratio
      // carries no signal and the weight is left alone. The update is
      // deliberately damped and clamped to a narrow band: railing the
      // weight starves one side of the iteration and stalls convergence.
      if (cand_score.dual > 1e-12 && cand_score.primal > 1e-12) {
        omega = std::clamp(
            omega * std::pow(cand_score.dual / cand_score.primal, 0.2), 3e-2,
            3e1);
      }
    }
  }
  if (sol.status != SolveStatus::kOptimal) {
    finish(best_x, best_y, best_score, options_.max_iterations,
           SolveStatus::kIterationLimit);
  }

  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& solves = registry.counter("lp.pdhg_solves");
  static obs::Counter& iters = registry.counter("lp.pdhg_iterations");
  static obs::Counter& restart_count = registry.counter("lp.pdhg_restarts");
  static obs::DoubleCounter& total_s =
      registry.double_counter("lp.pdhg_seconds");
  static obs::DoubleCounter& scale_s =
      registry.double_counter("lp.pdhg_scale_seconds");
  static obs::DoubleCounter& kernel_s =
      registry.double_counter("lp.pdhg_kernel_seconds");
  static obs::DoubleCounter& kkt_s =
      registry.double_counter("lp.pdhg_kkt_seconds");
  solves.add();
  iters.add(static_cast<std::uint64_t>(iterations_run));
  restart_count.add(restarts);
  total_s.add(seconds_since(solve_start));
  scale_s.add(scale_seconds);
  kernel_s.add(kernel_seconds);
  kkt_s.add(kkt_seconds);
  // Fault seam: one solve reports iteration-cap exhaustion after running,
  // so callers' failure handling is exercised on an otherwise-good solve.
  if (fault_fire(FaultSite::kPdhgFail)) [[unlikely]] {
    sol.status = SolveStatus::kIterationLimit;
  }
  return sol;
}

}  // namespace eca::solve
