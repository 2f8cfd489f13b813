#include "algo/extensions.h"

#include <algorithm>

#include "algo/offline.h"
#include "algo/slot_lp.h"
#include "common/check.h"
#include "model/costs.h"
#include "solve/ipm_lp.h"

namespace eca::algo {

Allocation LookaheadOpt::decide(const Instance& instance, std::size_t t,
                                const Allocation& previous) {
  const solve::LpSolution sol = solve_horizon_lp(
      build_horizon_lp(instance, t, options_.window, previous));
  ECA_CHECK(sol.status == solve::SolveStatus::kOptimal,
            "lookahead window LP failed at slot ", t, ": ",
            solve::to_string(sol.status));
  Allocation alloc(instance.num_clouds, instance.num_users);
  for (std::size_t idx = 0; idx < alloc.x.size(); ++idx) {
    alloc.x[idx] = std::max(sol.x[idx], 0.0);  // window slot 0
  }
  return alloc;
}

Allocation LazyGreedy::decide(const Instance& instance, std::size_t t,
                              const Allocation& previous) {
  // Candidate: the greedy re-optimization.
  const GreedySlotLp built = build_greedy_slot_lp(instance, t, previous);
  const solve::LpSolution sol = solve::InteriorPointLp().solve(built.lp);
  ECA_CHECK(sol.status == solve::SolveStatus::kOptimal,
            "lazy-greedy LP failed at slot ", t);
  Allocation candidate = built.extract(instance, sol.x);

  // Keeping the previous allocation is free of dynamic cost; adopt the
  // candidate only when re-optimizing beats it by more than the threshold.
  // Solver dust from the previous slot can leave ~1e-8 constraint slack;
  // anything this small is still "feasible" for keep-vs-move purposes.
  const bool have_previous =
      !previous.x.empty() &&
      model::allocation_violation(instance, previous) <= 1e-6;
  if (have_previous && t > 0) {
    const double keep_cost =
        model::slot_cost(instance, t, previous, &previous)
            .total(instance.weights);
    const double move_cost =
        model::slot_cost(instance, t, candidate, &previous)
            .total(instance.weights);
    if (keep_cost <= (1.0 + options_.threshold) * move_cost) {
      return previous;
    }
  }
  return candidate;
}

}  // namespace eca::algo
