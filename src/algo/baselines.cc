#include "algo/baselines.h"

#include <utility>

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
  obs::Counter& warm_chained;
  obs::Counter& anchor_restarts;

  static BaselineMetrics& get() {
    static BaselineMetrics m{
        obs::MetricsRegistry::global().counter("baseline.lp_solves"),
        obs::MetricsRegistry::global().counter("baseline.lp_failures"),
        obs::MetricsRegistry::global().counter("baseline.warm_chained"),
        obs::MetricsRegistry::global().counter("baseline.anchor_restarts"),
    };
    return m;
  }
};

// Post-solve contract shared by every baseline LP: each check counts one
// baseline.lp_solves hit (and one lp_fail fault-injection hit); a failure
// routes the full context (algorithm, slot, solver status, iteration count,
// warm-start flags) through eca::log and the baseline.lp_failures counter
// and returns false so the caller can attempt the documented recovery —
// one rebuild-from-scratch, cold, fresh-workspace re-solve, bit-identical
// to the never-faulted rebuild+cold path. Only a second failure aborts.
bool lp_check(const solve::LpSolution& sol, const char* who, std::size_t t) {
  BaselineMetrics::get().lp_solves.add(1);
  const bool injected = fault_fire(FaultSite::kLpFail);
  if (sol.status == solve::SolveStatus::kOptimal && !injected) [[likely]] {
    return true;
  }
  BaselineMetrics::get().lp_failures.add(1);
  ECA_LOG_ERROR(
      "%s: LP solve failed at slot %zu: status=%s iterations=%d "
      "warm_started=%d warm_fallback=%d injected=%d",
      who, t, solve::to_string(sol.status), sol.iterations,
      static_cast<int>(sol.warm_started), static_cast<int>(sol.warm_fallback),
      static_cast<int>(injected));
  return false;
}

solve::LpSolution solve_or_recover(const solve::LpProblem& lp,
                                   const char* who, std::size_t t) {
  solve::LpSolution sol = solve::InteriorPointLp().solve(lp);
  if (lp_check(sol, who, t)) [[likely]] return sol;
  ECA_LOG_WARN("%s: retrying slot %zu with a cold fresh-workspace solve",
               who, t);
  sol = solve::InteriorPointLp().solve(lp);
  const bool recovered = lp_check(sol, who, t);
  ECA_CHECK(recovered, who, " LP failed twice at slot ", t, ": ",
            solve::to_string(sol.status));
  return sol;
}

}  // namespace

void AtomisticAlgorithm::reset(const Instance& instance) {
  last_t_ = -1;
  has_anchor_ = false;
  if (options_.reuse_skeleton) {
    skeleton_.emplace(instance, include_operation_, include_service_quality_);
  } else {
    skeleton_.reset();
  }
}

Allocation AtomisticAlgorithm::decide(const Instance& instance, std::size_t t,
                                      const Allocation& /*previous*/) {
  if (!options_.reuse_skeleton) {
    // Legacy path: from-scratch build, cold solve. The baseline bench uses
    // this as its rebuild+cold reference leg.
    const StaticSlotLp built = build_static_slot_lp(
        instance, t, include_operation_, include_service_quality_);
    const solve::LpSolution sol = solve_or_recover(built.lp, name_.c_str(), t);
    return extract_static(instance, sol.x);
  }
  // Tolerate direct decide() without a prior reset() (the historical
  // contract); a stale skeleton from another instance is caught by the
  // refresh shape check.
  if (!skeleton_) {
    skeleton_.emplace(instance, include_operation_, include_service_quality_);
  }
  const StaticSlotLp& built = skeleton_->refresh(instance, t);
  solve::IpmWarmStart warm;
  if (options_.warm_start && has_anchor_ &&
      instance.num_users <= kBaselineWarmMaxUsers) {
    // Block-chained warm source: chain from the previous slot inside a
    // block, restart from the slot-0 anchor at block heads. The chain
    // never crosses a block boundary, so parallel block-wise evaluation
    // reproduces the serial trajectory bit for bit.
    const bool chain = last_t_ >= 0 &&
                       t == static_cast<std::size_t>(last_t_) + 1 &&
                       (t % kBaselineWarmBlock) != 0;
    const solve::LpSolution& src = chain ? last_ : anchor_;
    warm.x = &src.x;
    warm.row_duals = &src.row_duals;
    auto& m = BaselineMetrics::get();
    (chain ? m.warm_chained : m.anchor_restarts).add(1);
  }
  solve::InteriorPointLp().solve_into(built.lp, workspace_, warm, scratch_);
  if (!lp_check(scratch_, name_.c_str(), t)) [[unlikely]] {
    // Skeleton→rebuild fallback: distrust both the skeleton and the warm
    // chain, rebuild the slot LP from scratch and solve it cold in a fresh
    // workspace — bit-identical to the reuse_skeleton=false path (the
    // refresh is bitwise-identical to a fresh build, so the rebuilt LP is
    // the same problem).
    const StaticSlotLp rebuilt = build_static_slot_lp(
        instance, t, include_operation_, include_service_quality_);
    scratch_ = solve_or_recover(rebuilt.lp, name_.c_str(), t);
  }
  if (t == 0 && !has_anchor_) {
    anchor_ = scratch_;
    has_anchor_ = true;
  }
  std::swap(last_, scratch_);
  last_t_ = static_cast<std::ptrdiff_t>(t);
  return extract_static(instance, last_.x);
}

AlgorithmPtr AtomisticAlgorithm::clone_for_slots() const {
  auto clone = std::make_unique<AtomisticAlgorithm>(
      name_, include_operation_, include_service_quality_, options_);
  // Carry the post-reset() state the worker needs (skeleton, anchor) but a
  // fresh workspace and no chain position: the clone's first slot of every
  // block warm-starts from the anchor exactly as the serial loop does.
  clone->skeleton_ = skeleton_;
  clone->anchor_ = anchor_;
  clone->has_anchor_ = has_anchor_;
  return clone;
}

void OnlineGreedy::reset(const Instance& instance) {
  if (options_.reuse_skeleton) {
    skeleton_.emplace(instance);
  } else {
    skeleton_.reset();
  }
}

Allocation OnlineGreedy::decide(const Instance& instance, std::size_t t,
                                const Allocation& previous) {
  if (!options_.reuse_skeleton) {
    const GreedySlotLp built = build_greedy_slot_lp(instance, t, previous);
    const solve::LpSolution sol = solve_or_recover(built.lp, "online-greedy", t);
    return built.extract(instance, sol.x);
  }
  if (!skeleton_) skeleton_.emplace(instance);
  const GreedySlotLp& built = skeleton_->refresh(instance, t, previous);
  solve::InteriorPointLp().solve_into(built.lp, workspace_,
                                      solve::IpmWarmStart{}, scratch_);
  if (!lp_check(scratch_, "online-greedy", t)) [[unlikely]] {
    // Same skeleton→rebuild fallback as the static baselines.
    const GreedySlotLp rebuilt = build_greedy_slot_lp(instance, t, previous);
    scratch_ = solve_or_recover(rebuilt.lp, "online-greedy", t);
  }
  return built.extract(instance, scratch_.x);
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

AlgorithmPtr StaticOnce::clone_for_slots() const {
  auto clone = std::make_unique<StaticOnce>();
  clone->fixed_ = fixed_;
  return clone;
}

}  // namespace eca::algo
