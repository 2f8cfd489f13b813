// The baseline algorithms of the paper's evaluation (Section V-B).
//
// Atomistic group (static cost only, per slot):
//   * perf-opt — minimize Cost_sq only
//   * oper-opt — minimize Cost_op only
//   * stat-opt — minimize Cost_op + Cost_sq
// Holistic group:
//   * online-greedy — minimize the full P0 slot cost given the previous
//     slot's decision, no look-ahead
//   * static-once   — optimize the static cost once in slot 0 and never
//     adapt; the "static approach typically employed in edge clouds" that
//     the paper's introduction compares against ("up to 4x reduction").
//
// Evaluation path: by default the per-slot LPs are built through cached
// skeletons (algo/slot_lp.h) and solved through a reused IpmWorkspace with
// block-chained warm starts (kBaselineWarmBlock in algo/algorithm.h), so the
// steady-state slot loop performs no heap allocation. BaselineOptions turns
// either optimization off — with both off the algorithms take the literal
// legacy path (from-scratch build + cold solve), which the baseline bench
// uses as its reference leg.
#pragma once

#include <optional>

#include "algo/algorithm.h"
#include "algo/slot_lp.h"
#include "solve/ipm_lp.h"

namespace eca::algo {

// Warm-start engagement cap: chain warm starts only when the instance has
// at most this many users. Measured iteration crossover (stat-opt slot LPs,
// random-walk mobility): previous-slot hints save ~2-4% IPM iterations at
// J=128..512 but COST ~5-15% at J=1024 — with all users moving every slot,
// the optimum shifts further per slot as J grows while the cold start stays
// a flat ~17 iterations. Like every other engagement policy here, the cap
// depends only on the instance shape, so thread count never changes
// results.
inline constexpr std::size_t kBaselineWarmMaxUsers = 512;

// Per-slot evaluation knobs shared by the baseline algorithms.
struct BaselineOptions {
  // Build each slot's LP by refreshing a cached skeleton instead of from
  // scratch (bitwise-identical LPs, no allocation).
  bool reuse_skeleton = true;
  // Warm-start each slot's IPM solve from the block-chained previous
  // solution (slot-0 anchor at block heads). Requires reuse_skeleton.
  // Only sensible when consecutive slot LPs share their feasible set: the
  // atomistic group reads it, OnlineGreedy never warm-starts (see its class
  // comment).
  bool warm_start = true;
};

// Shared implementation for the three atomistic baselines. Slot-separable:
// decide() ignores `previous`, so the simulator may fan slot blocks out to
// clone_for_slots() copies.
class AtomisticAlgorithm : public OnlineAlgorithm {
 public:
  AtomisticAlgorithm(std::string name, bool include_operation,
                     bool include_service_quality,
                     BaselineOptions options = {})
      : name_(std::move(name)),
        include_operation_(include_operation),
        include_service_quality_(include_service_quality),
        options_(options) {}

  [[nodiscard]] std::string name() const override { return name_; }

  void reset(const Instance& instance) override;

  [[nodiscard]] Allocation decide(const Instance& instance, std::size_t t,
                                  const Allocation& previous) override;

  [[nodiscard]] bool slot_separable() const override { return true; }
  [[nodiscard]] AlgorithmPtr clone_for_slots() const override;

 private:
  std::string name_;
  bool include_operation_;
  bool include_service_quality_;
  BaselineOptions options_;

  // Per-run evaluation state (rebuilt by reset(); absent on the legacy
  // path). The warm chain: `last_` is the previous slot's solution,
  // `anchor_` the slot-0 solution every block head restarts from.
  std::optional<StaticSlotLpSkeleton> skeleton_;
  solve::IpmWorkspace workspace_;
  solve::LpSolution last_;
  solve::LpSolution anchor_;
  solve::LpSolution scratch_;
  std::ptrdiff_t last_t_ = -1;
  bool has_anchor_ = false;
};

class PerfOpt final : public AtomisticAlgorithm {
 public:
  explicit PerfOpt(BaselineOptions options = {})
      : AtomisticAlgorithm("perf-opt", false, true, options) {}
};

class OperOpt final : public AtomisticAlgorithm {
 public:
  explicit OperOpt(BaselineOptions options = {})
      : AtomisticAlgorithm("oper-opt", true, false, options) {}
};

class StatOpt final : public AtomisticAlgorithm {
 public:
  explicit StatOpt(BaselineOptions options = {})
      : AtomisticAlgorithm("stat-opt", true, true, options) {}
};

// Chains through the previous slot's decision, hence NOT slot-separable;
// still benefits from the cached skeleton in the serial loop. It solves
// every slot cold: the greedy LP's feasible set changes every slot (the
// reconfiguration variables' upper bounds are the previous decision), so
// the previous optimum is a structurally poor hint — measured at J=512 it
// cost ~1.5x wall clock and occasionally diverged into the solver's cold
// retry. Only BaselineOptions::reuse_skeleton is consulted.
class OnlineGreedy final : public OnlineAlgorithm {
 public:
  explicit OnlineGreedy(BaselineOptions options = {}) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "online-greedy"; }
  void reset(const Instance& instance) override;
  [[nodiscard]] Allocation decide(const Instance& instance, std::size_t t,
                                  const Allocation& previous) override;

 private:
  BaselineOptions options_;
  std::optional<GreedySlotLpSkeleton> skeleton_;
  solve::IpmWorkspace workspace_;
  solve::LpSolution scratch_;
};

// Solves one LP per run, so it takes no BaselineOptions: the skeleton and
// warm-start knobs have nothing to optimize.
class StaticOnce final : public OnlineAlgorithm {
 public:
  [[nodiscard]] std::string name() const override { return "static-once"; }
  void reset(const Instance& instance) override;
  [[nodiscard]] Allocation decide(const Instance& instance, std::size_t t,
                                  const Allocation& previous) override;

  [[nodiscard]] bool slot_separable() const override { return true; }
  [[nodiscard]] AlgorithmPtr clone_for_slots() const override;

 private:
  Allocation fixed_;
};

}  // namespace eca::algo
