// Online algorithm interface.
//
// Online algorithms see the instance one slot at a time: at slot t they
// receive the current prices/attachments and their own previous allocation,
// and must commit to x_{.,.,t} before seeing the future. The offline
// optimum (the competitive-ratio denominator) is computed by OfflineOpt,
// which sees the whole instance.
#pragma once

#include <memory>
#include <string>

#include "model/costs.h"
#include "model/instance.h"
#include "obs/telemetry.h"

namespace eca::algo {

using model::Allocation;
using model::AllocationSequence;
using model::Instance;

class OnlineAlgorithm {
 public:
  virtual ~OnlineAlgorithm() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // Called once before a run; may precompute per-instance state.
  virtual void reset(const Instance& instance) { (void)instance; }

  // Decides the allocation for slot t. `previous` is this algorithm's own
  // decision at t-1 (all zeros at t = 0). Implementations must return a
  // feasible allocation (demand, capacity, non-negativity).
  [[nodiscard]] virtual Allocation decide(const Instance& instance,
                                          std::size_t t,
                                          const Allocation& previous) = 0;

  // Convergence telemetry of the most recent decide(), when the algorithm
  // runs an iterative solver per slot (OnlineApprox). The pointer stays
  // valid until the next decide()/reset(); nullptr for closed-form
  // baselines. The simulator folds this into the run's telemetry.
  [[nodiscard]] virtual const obs::SolveTelemetry* last_decide_telemetry()
      const {
    return nullptr;
  }

  // True when decide(instance, t, previous) ignores `previous` and depends
  // only on (instance, t) — i.e. the slots are independent subproblems and
  // the simulator may evaluate them in parallel. Algorithms whose decision
  // chains through the previous slot (online-greedy, online-approx) must
  // return false.
  [[nodiscard]] virtual bool slot_separable() const { return false; }

  // For slot-separable algorithms: a worker-private copy carrying the
  // post-reset() state (skeletons, configuration) with its own solver
  // scratch, so several clones can decide disjoint slots concurrently. Returns nullptr when cloning is unsupported, in
  // which case the simulator falls back to the serial loop.
  [[nodiscard]] virtual std::unique_ptr<OnlineAlgorithm> clone_for_slots()
      const {
    return nullptr;
  }
};

using AlgorithmPtr = std::unique_ptr<OnlineAlgorithm>;

}  // namespace eca::algo
