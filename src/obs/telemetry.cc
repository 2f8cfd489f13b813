#include "obs/telemetry.h"

#include <utility>

namespace eca::obs {

double RunTelemetry::slot_cost_sum() const {
  double sum = 0.0;
  for (const SlotTelemetry& slot : slots) sum += slot.cost_total();
  return sum;
}

long long RunTelemetry::total_newton_iterations() const {
  long long total = 0;
  for (const SlotTelemetry& slot : slots) {
    if (slot.has_solve) total += slot.solve.newton_iterations;
  }
  return total;
}

std::size_t RunTelemetry::warm_started_slots() const {
  std::size_t n = 0;
  for (const SlotTelemetry& slot : slots) {
    if (slot.has_solve && slot.solve.warm_started) ++n;
  }
  return n;
}

std::size_t RunTelemetry::warm_fallback_slots() const {
  std::size_t n = 0;
  for (const SlotTelemetry& slot : slots) {
    if (slot.has_solve && slot.solve.warm_fallback) ++n;
  }
  return n;
}

void attach_reference(RunTelemetry& run, const RunTelemetry& reference) {
  if (reference.slots.empty()) return;
  run.has_reference = true;
  run.offline_total_cost = reference.total_cost;
  double cum_cost = 0.0;
  double cum_offline = 0.0;
  for (std::size_t t = 0; t < run.slots.size(); ++t) {
    SlotTelemetry& slot = run.slots[t];
    const bool in_ref = t < reference.slots.size();
    const SlotTelemetry zero{};
    const SlotTelemetry& ref = in_ref ? reference.slots[t] : zero;
    slot.offline_cost = ref.cost_total();
    slot.regret_operation = slot.cost_operation - ref.cost_operation;
    slot.regret_service_quality =
        slot.cost_service_quality - ref.cost_service_quality;
    slot.regret_reconfiguration =
        slot.cost_reconfiguration - ref.cost_reconfiguration;
    slot.regret_migration = slot.cost_migration - ref.cost_migration;
    cum_cost += slot.cost_total();
    cum_offline += slot.offline_cost;
    slot.ratio_cum = cum_offline > 0.0 ? cum_cost / cum_offline : 0.0;
  }
}

void TelemetrySink::begin_run(std::string algorithm, std::size_t num_clouds,
                              std::size_t num_users, std::size_t num_slots) {
  run_ = RunTelemetry{};
  run_.algorithm = std::move(algorithm);
  run_.num_clouds = num_clouds;
  run_.num_users = num_users;
  run_.num_slots = num_slots;
  run_.slots.reserve(num_slots);
}

void TelemetrySink::record_slot(SlotTelemetry slot) {
  run_.slots.push_back(std::move(slot));
}

RunTelemetry TelemetrySink::finish(double total_cost, double wall_seconds) {
  run_.total_cost = total_cost;
  run_.wall_seconds = wall_seconds;
  RunTelemetry out = std::move(run_);
  run_ = RunTelemetry{};
  return out;
}

}  // namespace eca::obs
