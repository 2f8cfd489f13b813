// Streaming class-space driver for the aggregated online algorithm.
//
// Simulator::run materializes one I×J Allocation per slot (and the scored
// sequence keeps all T of them), which at J = 10⁶, T = 60 is tens of
// gigabytes — the memory wall between the reproduction and the ROADMAP's
// millions-of-users target. This driver runs the same aggregated
// online-approx trajectory entirely in class space: per slot it keeps the
// class partition (O(J) integers), the per-member class allocation (O(I·C)
// doubles) and nothing per-(cloud, user), scoring each slot with the exact
// class-weighted cost split (agg::class_slot_cost) before discarding it.
//
// Fidelity contract (pinned by tests/agg/streaming_test.cc): the sequence
// of collapsed P2 solves is bitwise identical to
// Simulator::run(OnlineApprox{aggregate_users = true}) on the same
// instance — the partitions coincide class-for-class, the dust rounding
// mirrors the simulator's, and the collapsed subproblems agree bitwise —
// so the two paths differ only in cost summation order (≪ 1e-9 relative).
#pragma once

#include <string>
#include <vector>

#include "algo/online_approx.h"
#include "model/costs.h"
#include "obs/telemetry.h"

namespace eca::sim {

struct AggregatedRunResult {
  std::string algorithm;
  model::CostBreakdown cost;
  double weighted_total = 0.0;
  std::vector<double> per_slot;  // weighted slot totals
  double wall_seconds = 0.0;
  double max_violation = 0.0;
  // Class-partition statistics per slot (the collapse the run achieved).
  std::vector<std::size_t> classes_per_slot;
  std::size_t max_classes = 0;
  // Same run record Simulator produces (cost splits + per-slot solver
  // convergence stats); record it with obs::emit_run.
  obs::RunTelemetry telemetry;
};

// Runs the aggregated online-approx trajectory over `instance` without ever
// materializing an I×J allocation. `options.aggregate_users` is implied.
[[nodiscard]] AggregatedRunResult run_aggregated_online_approx(
    const model::Instance& instance, const algo::OnlineApproxOptions& options);

}  // namespace eca::sim
