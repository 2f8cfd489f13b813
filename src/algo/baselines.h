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
// Evaluation path: every per-slot LP is built by refreshing a cached
// skeleton (algo/slot_lp.h) and solved from the interior-point method's
// cold start through a reused IpmWorkspace, as the paper solves each slot
// from scratch with IPOPT. The steady-state slot loop performs no heap
// allocation. A refreshed skeleton is bitwise equal to build_*_slot_lp and a
// cold solve does not depend on the workspace's history, so every decision
// equals build_*_slot_lp → InteriorPointLp().solve → extract_* bit for bit,
// and an atomistic baseline's slot-t decision does not depend on the slots
// it decided before (tests/algo/algorithms_test.cc pins both).
#pragma once

#include <optional>

#include "algo/algorithm.h"
#include "algo/slot_lp.h"
#include "solve/ipm_lp.h"

namespace eca::algo {

// Shared implementation for the three atomistic baselines. Slot-separable:
// decide() ignores `previous`, so the simulator may fan slots out to
// clone_for_slots() copies.
class AtomisticAlgorithm : public OnlineAlgorithm {
 public:
  AtomisticAlgorithm(std::string name, bool include_operation,
                     bool include_service_quality)
      : name_(std::move(name)),
        include_operation_(include_operation),
        include_service_quality_(include_service_quality) {}

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

  // Per-run evaluation state (rebuilt by reset()).
  std::optional<StaticSlotLpSkeleton> skeleton_;
  solve::IpmWorkspace workspace_;
  solve::LpSolution solution_;
};

class PerfOpt final : public AtomisticAlgorithm {
 public:
  PerfOpt() : AtomisticAlgorithm("perf-opt", false, true) {}
};

class OperOpt final : public AtomisticAlgorithm {
 public:
  OperOpt() : AtomisticAlgorithm("oper-opt", true, false) {}
};

class StatOpt final : public AtomisticAlgorithm {
 public:
  StatOpt() : AtomisticAlgorithm("stat-opt", true, true) {}
};

// Chains through the previous slot's decision, hence NOT slot-separable;
// still uses the cached skeleton and the reused workspace in the serial
// loop.
class OnlineGreedy final : public OnlineAlgorithm {
 public:
  [[nodiscard]] std::string name() const override { return "online-greedy"; }
  void reset(const Instance& instance) override;
  [[nodiscard]] Allocation decide(const Instance& instance, std::size_t t,
                                  const Allocation& previous) override;

 private:
  std::optional<GreedySlotLpSkeleton> skeleton_;
  solve::IpmWorkspace workspace_;
  solve::LpSolution solution_;
};

// Solves one LP per run, built from scratch: a skeleton would have nothing
// to save. Served serially: each slot only copies the fixed allocation, so
// a slot fan-out would cost more than it spreads.
class StaticOnce final : public OnlineAlgorithm {
 public:
  [[nodiscard]] std::string name() const override { return "static-once"; }
  void reset(const Instance& instance) override;
  [[nodiscard]] Allocation decide(const Instance& instance, std::size_t t,
                                  const Allocation& previous) override;

 private:
  Allocation fixed_;
};

}  // namespace eca::algo
