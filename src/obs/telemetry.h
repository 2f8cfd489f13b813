// Run-level telemetry: the per-slot cost and convergence record of one
// finished run. obs::emit_run (obs/events.h) serializes it into the
// eca.events.v4 stream, the only serialization of a run; competitive-ratio
// and regret attribution are derived from that stream
// (scripts/report_run.py), not stored here.
//
// Three layers:
//  * SolveTelemetry — one P2 solve, filled by RegularizedSolver
//    (iterations, μ-continuation steps, KKT residuals at exit, warm-start
//    outcome). Every field is deterministic.
//  * SlotTelemetry — one simulated slot: the weighted cost split in the
//    paper's Cost_op / Cost_sq / Cost_rc / Cost_mg decomposition plus the
//    slot's SolveTelemetry when the algorithm exposes one.
//  * RunTelemetry — one simulator run; the per-slot cost splits sum to the
//    run's weighted total objective (within float-addition reassociation,
//    which scripts/validate_telemetry.py bounds at 1e-9 relative).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace eca::obs {

struct SolveTelemetry {
  int newton_iterations = 0;
  // Number of strict decreases of the barrier target μ (the continuation
  // path length; shorter when warm starting re-enters near the end).
  int mu_steps = 0;
  // KKT quality at exit, both scaled by the solver's cost scale: average
  // complementarity and the infinity norm of the dual residual.
  double kkt_comp_avg = 0.0;
  double kkt_dual_residual = 0.0;
  bool warm_started = false;
  // Warm start was requested and carried duals existed, but the repaired
  // point was rejected and the solve fell back to the cold start.
  bool warm_fallback = false;
};

struct SlotTelemetry {
  std::size_t slot = 0;
  // Weighted cost components: operation and service quality carry the
  // static weight, reconfiguration and migration the dynamic weight, so
  // cost_total() matches the run objective's slot contribution.
  double cost_operation = 0.0;
  double cost_service_quality = 0.0;
  double cost_reconfiguration = 0.0;
  double cost_migration = 0.0;
  [[nodiscard]] double cost_total() const {
    return cost_operation + cost_service_quality + cost_reconfiguration +
           cost_migration;
  }
  bool has_solve = false;  // solve below is meaningful
  SolveTelemetry solve;
};

struct RunTelemetry {
  std::string algorithm;
  std::size_t num_clouds = 0;
  std::size_t num_users = 0;
  std::size_t num_slots = 0;
  double total_cost = 0.0;  // the run's weighted P0 objective
  std::vector<SlotTelemetry> slots;
};

}  // namespace eca::obs
