#include "algo/baselines.h"

#include "algo/slot_lp.h"
#include "common/check.h"
#include "common/fault.h"
#include "common/log.h"
#include "obs/metrics.h"

namespace eca::algo {
namespace {

// Integer-only counters (exact totals for any thread assignment, so the
// parallel baseline path stays metrics-deterministic).
struct BaselineMetrics {
  obs::Counter& lp_solves;
  obs::Counter& lp_failures;

  static BaselineMetrics& get() {
    static BaselineMetrics m{
        obs::MetricsRegistry::global().counter("baseline.lp_solves"),
        obs::MetricsRegistry::global().counter("baseline.lp_failures"),
    };
    return m;
  }
};

// Post-solve contract shared by every baseline LP: each check counts one
// baseline.lp_solves hit (and one lp_fail fault-injection hit); a failure
// routes the full context (algorithm, slot, solver status, iteration count)
// through eca::log and the baseline.lp_failures counter and returns false
// so the caller can attempt the documented recovery — one
// rebuild-from-scratch, fresh-workspace re-solve, bit-identical to the
// never-faulted path. Only a second failure aborts.
bool lp_check(const solve::LpSolution& sol, const char* who, std::size_t t) {
  BaselineMetrics::get().lp_solves.add(1);
  const bool injected = fault_fire(FaultSite::kLpFail);
  if (sol.status == solve::SolveStatus::kOptimal && !injected) [[likely]] {
    return true;
  }
  BaselineMetrics::get().lp_failures.add(1);
  ECA_LOG_ERROR(
      "%s: LP solve failed at slot %zu: status=%s iterations=%d injected=%d",
      who, t, solve::to_string(sol.status), sol.iterations,
      static_cast<int>(injected));
  return false;
}

solve::LpSolution solve_or_recover(const solve::LpProblem& lp,
                                   const char* who, std::size_t t) {
  solve::LpSolution sol = solve::InteriorPointLp().solve(lp);
  if (lp_check(sol, who, t)) [[likely]] return sol;
  ECA_LOG_WARN("%s: retrying slot %zu with a fresh-workspace solve",
               who, t);
  sol = solve::InteriorPointLp().solve(lp);
  const bool recovered = lp_check(sol, who, t);
  ECA_CHECK(recovered, who, " LP failed twice at slot ", t, ": ",
            solve::to_string(sol.status));
  return sol;
}

}  // namespace

void AtomisticAlgorithm::reset(const Instance& instance) {
  skeleton_.emplace(instance, include_operation_, include_service_quality_);
}

Allocation AtomisticAlgorithm::decide(const Instance& instance, std::size_t t,
                                      const Allocation& /*previous*/) {
  // Tolerate direct decide() without a prior reset() (the historical
  // contract); a stale skeleton from another instance is caught by the
  // refresh shape check.
  if (!skeleton_) {
    skeleton_.emplace(instance, include_operation_, include_service_quality_);
  }
  const StaticSlotLp& built = skeleton_->refresh(instance, t);
  solve::InteriorPointLp().solve_into(built.lp, workspace_, solution_);
  if (!lp_check(solution_, name_.c_str(), t)) [[unlikely]] {
    // Skeleton→rebuild fallback: distrust the skeleton, rebuild the slot LP
    // from scratch and solve it in a fresh workspace. The refresh is
    // bitwise equal to a fresh build, so the rebuilt LP is the same problem.
    const StaticSlotLp rebuilt = build_static_slot_lp(
        instance, t, include_operation_, include_service_quality_);
    solution_ = solve_or_recover(rebuilt.lp, name_.c_str(), t);
  }
  return extract_static(instance, solution_.x);
}

AlgorithmPtr AtomisticAlgorithm::clone_for_slots() const {
  auto clone = std::make_unique<AtomisticAlgorithm>(
      name_, include_operation_, include_service_quality_);
  // The post-reset() skeleton, a fresh workspace.
  clone->skeleton_ = skeleton_;
  return clone;
}

void OnlineGreedy::reset(const Instance& instance) {
  skeleton_.emplace(instance);
}

Allocation OnlineGreedy::decide(const Instance& instance, std::size_t t,
                                const Allocation& previous) {
  if (!skeleton_) skeleton_.emplace(instance);
  const GreedySlotLp& built = skeleton_->refresh(instance, t, previous);
  solve::InteriorPointLp().solve_into(built.lp, workspace_, solution_);
  if (!lp_check(solution_, "online-greedy", t)) [[unlikely]] {
    // Same skeleton→rebuild fallback as the static baselines.
    const GreedySlotLp rebuilt = build_greedy_slot_lp(instance, t, previous);
    solution_ = solve_or_recover(rebuilt.lp, "online-greedy", t);
  }
  return built.extract(instance, solution_.x);
}

void StaticOnce::reset(const Instance& instance) {
  const StaticSlotLp built = build_static_slot_lp(instance, 0, true, true);
  const solve::LpSolution sol = solve_or_recover(built.lp, "static-once", 0);
  fixed_ = extract_static(instance, sol.x);
}

Allocation StaticOnce::decide(const Instance& instance, std::size_t /*t*/,
                              const Allocation& /*previous*/) {
  ECA_CHECK(fixed_.num_clouds == instance.num_clouds &&
                fixed_.num_users == instance.num_users,
            "StaticOnce::reset was not called for this instance");
  return fixed_;
}

}  // namespace eca::algo
