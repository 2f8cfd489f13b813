#include "algo/online_approx.h"

#include "agg/aggregate.h"
#include "common/check.h"
#include "model/costs.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eca::algo {
namespace {

// Cached registry handles for the per-slot decision metrics. All of these
// are recorded by the thread driving the slot sequence (never by assembly
// workers), so their totals are bit-deterministic across ECA_SLOT_THREADS —
// the property pinned by tests/solve/obs_parallel_test.cc.
struct AlgoMetrics {
  obs::Counter& slots;
  obs::Counter& mu_steps;
  obs::DoubleCounter& cost_operation;
  obs::DoubleCounter& cost_service_quality;
  obs::DoubleCounter& cost_reconfiguration;
  obs::DoubleCounter& cost_migration;

  static AlgoMetrics& get() {
    static AlgoMetrics m{
        obs::MetricsRegistry::global().counter("algo.slots"),
        obs::MetricsRegistry::global().counter("algo.mu_steps"),
        obs::MetricsRegistry::global().double_counter("algo.cost_operation"),
        obs::MetricsRegistry::global().double_counter(
            "algo.cost_service_quality"),
        obs::MetricsRegistry::global().double_counter(
            "algo.cost_reconfiguration"),
        obs::MetricsRegistry::global().double_counter("algo.cost_migration")};
    return m;
  }
};

}  // namespace

solve::RegularizedProblem OnlineApprox::build_subproblem(
    const Instance& instance, std::size_t t, const Allocation& previous) const {
  const std::size_t kI = instance.num_clouds;
  const std::size_t kJ = instance.num_users;
  solve::RegularizedProblem p;
  p.num_clouds = kI;
  p.num_users = kJ;
  p.eps1 = options_.eps1;
  p.eps2 = options_.eps2;
  p.enforce_capacity = options_.enforce_capacity;
  p.demand = instance.demand;
  p.capacity = instance.capacities();
  p.linear_cost.resize(kI * kJ);
  const double ws = instance.weights.static_weight;
  const double wd = instance.weights.dynamic_weight;
  for (std::size_t i = 0; i < kI; ++i) {
    const double op = instance.operation_price[t][i];
    for (std::size_t j = 0; j < kJ; ++j) {
      p.linear_cost[p.index(i, j)] =
          ws * (op + instance.service_coefficient(t, i, j));
    }
  }
  p.recon_price.resize(kI);
  p.migration_price.resize(kI);
  for (std::size_t i = 0; i < kI; ++i) {
    p.recon_price[i] = options_.use_reconfiguration_regularizer
                           ? wd * instance.clouds[i].reconfiguration_price
                           : 0.0;
    p.migration_price[i] = options_.use_migration_regularizer
                               ? wd * instance.clouds[i].migration_price()
                               : 0.0;
  }
  p.prev = previous.x;
  if (p.prev.empty()) p.prev.assign(kI * kJ, 0.0);
  return p;
}

void OnlineApprox::reset(const Instance& /*instance*/) {
  certificate_.clear();
  // A reset starts an unrelated trajectory: the duals remembered by the
  // workspace belong to the previous run's last slot and must not seed the
  // next run's first solve (repetitions would otherwise not be independent).
  workspace_.invalidate_warm_start();
}

Allocation OnlineApprox::decide(const Instance& instance, std::size_t t,
                                const Allocation& previous) {
  obs::TraceSpan span(obs::global_trace(), "slot_decide");
  span.set_arg("t", static_cast<double>(t));
  solve::RegularizedSolution sol;
  if (options_.aggregate_users) {
    // Class-collapsed P2: partition on (λ, l_{j,t}, previous column), solve
    // over class totals y = w·x, expand x = y/w and the duals (θ_j = θ'_c,
    // δ_ij = δ'_ic — the collapsed stationarity equation is the per-member
    // one, so the expanded duals feed the certificate unchanged). When the
    // class count changes across slots the workspace resize() drops the
    // carried duals automatically; a stale-but-same-shape correspondence
    // only costs warm-start quality, never correctness.
    const agg::ClassPartition part =
        agg::build_slot_classes(instance, t, previous);
    last_num_classes_ = part.num_classes;
    const std::size_t kI = instance.num_clouds;
    const std::size_t kC = part.num_classes;
    linalg::Vec member_prev(kI * kC, 0.0);
    if (!previous.x.empty()) {
      for (std::size_t c = 0; c < kC; ++c) {
        const std::size_t rep = part.representative[c];
        for (std::size_t i = 0; i < kI; ++i) {
          member_prev[i * kC + c] = previous.at(i, rep);
        }
      }
    }
    const agg::SubproblemParams params{
        options_.eps1, options_.eps2, options_.enforce_capacity,
        options_.use_reconfiguration_regularizer,
        options_.use_migration_regularizer};
    const solve::RegularizedProblem p = agg::build_collapsed_subproblem(
        instance, t, part, member_prev, params);
    const solve::RegularizedSolution csol =
        solve::RegularizedSolver(options_.solver).solve(p, workspace_);
    ECA_CHECK(csol.status == solve::SolveStatus::kOptimal,
              "collapsed P2 subproblem failed at slot ", t, " (", kC,
              " classes): ", solve::to_string(csol.status));
    sol = agg::expand_solution(csol, part, kI);
  } else {
    last_num_classes_ = instance.num_users;
    const solve::RegularizedProblem p =
        build_subproblem(instance, t, previous);
    sol = solve::RegularizedSolver(options_.solver).solve(p, workspace_);
    ECA_CHECK(sol.status == solve::SolveStatus::kOptimal,
              "P2 subproblem failed at slot ", t, ": ",
              solve::to_string(sol.status));
  }
  certificate_.add_slot(instance, t, sol);
  Allocation alloc(instance.num_clouds, instance.num_users);
  alloc.x = sol.x;
  last_stats_ = sol.stats;
  has_last_stats_ = true;
  // The P0 cost split of the decision just played (weighted, so the
  // accumulated totals decompose the run objective).
  const model::CostBreakdown bd =
      model::slot_cost(instance, t, alloc, &previous);
  const double wstat = instance.weights.static_weight;
  const double wdyn = instance.weights.dynamic_weight;
  AlgoMetrics& am = AlgoMetrics::get();
  am.slots.add();
  am.mu_steps.add(static_cast<std::uint64_t>(sol.stats.mu_steps));
  am.cost_operation.add(wstat * bd.operation);
  am.cost_service_quality.add(wstat * bd.service_quality);
  am.cost_reconfiguration.add(wdyn * bd.reconfiguration);
  am.cost_migration.add(wdyn * bd.migration);
  return alloc;
}

}  // namespace eca::algo
