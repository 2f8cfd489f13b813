// Run-level telemetry: the per-slot convergence and cost records that the
// simulator assembles into an `eca.telemetry.v4` summary (serialized by
// src/io/serialize.h). v4 is v3 without the per-solve active-set fields.
//
// Three layers:
//  * SolveTelemetry — one P2 solve, filled by RegularizedSolver
//    (iterations, μ-continuation steps, KKT residuals at exit, warm-start
//    outcome, stage timings). Timings are only populated when
//    obs::metrics_enabled(); the convergence fields are always set.
//  * SlotTelemetry — one simulated slot: the weighted cost split in the
//    paper's Cost_op / Cost_sq / Cost_rc / Cost_mg decomposition plus the
//    slot's SolveTelemetry when the algorithm exposes one. With a reference
//    trajectory attached (schema v3, see attach_reference) it also carries
//    the slot's competitive-ratio attribution: the reference's weighted
//    cost, the cumulative online/offline ratio through this slot, and the
//    per-component regret split.
//  * RunTelemetry — one simulator run; the per-slot cost splits sum to the
//    run's weighted total objective (within float-addition reassociation,
//    which the schema checker bounds at 1e-9 relative). v3 additionally
//    surfaces the trace/event drop counters that previously vanished
//    silently at the end of a run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace eca::obs {

inline constexpr const char* kTelemetrySchema = "eca.telemetry.v4";

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
  // Wall-clock stage split (seconds); zero when metrics are disabled.
  double solve_seconds = 0.0;
  double assembly_seconds = 0.0;  // chunk-assembly passes (across workers)
  double factor_seconds = 0.0;    // (I+1)² Schur LU factorizations
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
  // --- Competitive-ratio attribution (schema v3) ---
  // Meaningful only when the owning run's has_reference is set (filled by
  // attach_reference against the offline-opt trajectory of the same
  // instance). regret_* decompose this slot's excess over the reference
  // into the paper's cost terms: Σ regret_* == cost_total() - offline_cost.
  double offline_cost = 0.0;  // reference trajectory's weighted slot cost
  double ratio_cum = 0.0;     // Σ_{s<=t} cost / Σ_{s<=t} offline cost
  double regret_operation = 0.0;
  double regret_service_quality = 0.0;
  double regret_reconfiguration = 0.0;
  double regret_migration = 0.0;
  [[nodiscard]] double regret_total() const {
    return regret_operation + regret_service_quality +
           regret_reconfiguration + regret_migration;
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
  double wall_seconds = 0.0;
  // --- Competitive-ratio attribution (schema v3) ---
  // True once attach_reference has filled the per-slot ratio fields.
  bool has_reference = false;
  double offline_total_cost = 0.0;  // the reference run's weighted objective
  // --- Drop accounting (schema v3) ---
  // Observability events that could not be buffered during this run
  // (fixed-capacity drop-on-overflow buffers; raise ECA_TRACE_CAP /
  // ECA_EVENTS_CAP when nonzero). Zero when the corresponding sink is off.
  std::uint64_t trace_dropped = 0;
  std::uint64_t events_dropped = 0;
  std::vector<SlotTelemetry> slots;

  [[nodiscard]] bool empty() const { return slots.empty(); }
  // Final empirical competitive ratio (0 without a reference).
  [[nodiscard]] double ratio() const {
    return has_reference && offline_total_cost > 0.0
               ? total_cost / offline_total_cost
               : 0.0;
  }
  // Σ_t slot cost — equals total_cost up to float reassociation.
  [[nodiscard]] double slot_cost_sum() const;
  // Aggregates over the per-slot solve records (0 when none present).
  [[nodiscard]] long long total_newton_iterations() const;
  [[nodiscard]] std::size_t warm_started_slots() const;
  [[nodiscard]] std::size_t warm_fallback_slots() const;
};

// Fills `run`'s competitive-ratio attribution against `reference` (the
// offline-opt trajectory of the same instance): per-slot offline_cost,
// cumulative ratio, and the per-component regret split, plus the run-level
// has_reference/offline_total_cost pair. Slots beyond the reference's length
// attribute against a zero-cost reference slot (regret == cost). No-op when
// the reference is empty.
void attach_reference(RunTelemetry& run, const RunTelemetry& reference);

// Accumulates one run's telemetry slot by slot; the simulator drives it.
class TelemetrySink {
 public:
  void begin_run(std::string algorithm, std::size_t num_clouds,
                 std::size_t num_users, std::size_t num_slots);
  void record_slot(SlotTelemetry slot);
  // Seals the run (fills totals) and returns it; the sink is reset.
  RunTelemetry finish(double total_cost, double wall_seconds);

 private:
  RunTelemetry run_;
};

}  // namespace eca::obs
