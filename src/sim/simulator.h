// Discrete-time simulator: drives an online algorithm slot by slot over an
// instance, collects its allocation sequence and scores it under the
// original P0 objective.
#pragma once

#include <string>
#include <vector>

#include "algo/algorithm.h"
#include "algo/offline.h"
#include "model/costs.h"
#include "obs/telemetry.h"

namespace eca::sim {

using model::AllocationSequence;
using model::CostBreakdown;
using model::Instance;

struct SimulationResult {
  std::string algorithm;
  AllocationSequence allocations;
  CostBreakdown cost;
  double weighted_total = 0.0;
  // Per-slot weighted totals (for time-series inspection).
  std::vector<double> per_slot;
  double wall_seconds = 0.0;
  double max_violation = 0.0;  // feasibility of the produced sequence
  // The run's record: per-slot weighted cost split (from the same scoring
  // pass as `cost`, so the splits sum to weighted_total) plus per-slot
  // solver convergence stats when the algorithm exposes them. Simulator
  // never writes it to the event log; callers record finished runs with
  // obs::emit_run (the runner does so from its deterministic merge).
  obs::RunTelemetry telemetry;
};

// Knobs for the baseline slot fan-out. Only slot-separable algorithms
// (OnlineAlgorithm::slot_separable()) are ever parallelized; all others
// take the serial loop regardless of these settings. The parallel path is
// bit-identical to the serial one for every worker count: slots go
// round-robin to per-worker clone_for_slots() copies, each slot's decision
// depends only on (instance, t), and results land in index-addressed
// buffers.
struct SimulatorOptions {
  // Worker count for slot-separable algorithms: positive value wins, else
  // ECA_BASELINE_THREADS (fail-fast on invalid values), else 1 (serial).
  int baseline_threads = 0;
  // Work floor per dispatched worker in slot-LP cells
  // (num_slots x num_clouds x num_users); 0 uses
  // ThreadPool::kDefaultBaselineMinWork. Keeps tiny instances off the pool.
  std::size_t min_slot_work = 0;
  // Lift the hardware-concurrency cap (determinism tests oversubscribe to
  // stress worker interleaving on any machine).
  bool oversubscribe = false;
};

class Simulator {
 public:
  // Runs `algorithm` online over the instance.
  [[nodiscard]] static SimulationResult run(
      const Instance& instance, algo::OnlineAlgorithm& algorithm,
      const SimulatorOptions& options = {});

  // Scores a precomputed allocation sequence (e.g. the offline optimum).
  [[nodiscard]] static SimulationResult score(const Instance& instance,
                                              std::string name,
                                              AllocationSequence allocations);
};

}  // namespace eca::sim
