#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace eca::sim {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

SimulationResult Simulator::run(const Instance& instance,
                                algo::OnlineAlgorithm& algorithm,
                                const SimulatorOptions& options) {
  const std::string instance_error = instance.validate();
  ECA_CHECK(instance_error.empty(), instance_error);

  ECA_TRACE_SPAN("sim_run");
  const auto start = std::chrono::steady_clock::now();
  algorithm.reset(instance);
  const std::size_t num_slots = instance.num_slots;
  AllocationSequence seq(num_slots);
  // Solver telemetry captured per decide (empty record for algorithms that
  // expose none); folded into the scored telemetry below. Index-addressed
  // so the parallel path below writes without synchronization.
  std::vector<obs::SolveTelemetry> solve_stats(num_slots);
  std::vector<char> has_solve(num_slots, 0);
  // Interior-point and first-order solvers leave O(tolerance) dust in
  // coordinates that are zero at the optimum; rounding it off keeps the
  // next slot's subproblem well-conditioned and is cost-neutral (demands
  // are >= 1).
  constexpr double kDust = 1e-9;
  const auto decide_slot = [&](algo::OnlineAlgorithm& alg, std::size_t t,
                               const model::Allocation& previous) {
    model::Allocation current = alg.decide(instance, t, previous);
    ECA_CHECK(current.num_clouds == instance.num_clouds &&
                  current.num_users == instance.num_users,
              "algorithm returned an allocation of the wrong shape");
    if (const obs::SolveTelemetry* st = alg.last_decide_telemetry()) {
      solve_stats[t] = *st;
      has_solve[t] = 1;
    }
    for (double& v : current.x) {
      if (v < kDust) v = 0.0;
    }
    seq[t] = std::move(current);
  };

  // Slot fan-out for separable algorithms. Worker count is work-aware (one
  // worker per min_slot_work LP cells at least) and hardware-capped unless
  // the caller oversubscribes deliberately.
  const std::size_t work =
      num_slots * instance.num_clouds * instance.num_users;
  const std::size_t min_work = options.min_slot_work > 0
                                   ? options.min_slot_work
                                   : ThreadPool::kDefaultBaselineMinWork;
  std::size_t workers = ThreadPool::resolve_baseline_threads(
      options.baseline_threads, work, min_work, !options.oversubscribe);
  workers = std::min(workers, num_slots);

  bool fanned_out = false;
  if (workers > 1 && algorithm.slot_separable()) {
    std::vector<algo::AlgorithmPtr> clones;
    clones.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      clones.push_back(algorithm.clone_for_slots());
      if (clones.back() == nullptr) break;  // unsupported: serial fallback
    }
    if (clones.back() != nullptr) {
      // Static slot → worker assignment: worker w takes slots w, w+W,
      // w+2W, ... A separable algorithm's slot-t decision depends only on
      // (instance, t), so the result is independent of the assignment and
      // bit-identical to the serial loop.
      const model::Allocation zero_previous(instance.num_clouds,
                                            instance.num_users);
      const auto worker_span = [&](std::size_t w,
                                   algo::OnlineAlgorithm& alg) {
        for (std::size_t t = w; t < num_slots; t += workers) {
          decide_slot(alg, t, zero_previous);
        }
      };
      ThreadPool pool(workers - 1);
      for (std::size_t w = 1; w < workers; ++w) {
        algo::OnlineAlgorithm& alg = *clones[w - 1];
        pool.submit([&worker_span, w, &alg] { worker_span(w, alg); });
      }
      worker_span(0, algorithm);  // driving thread is worker 0
      pool.wait_idle();
      fanned_out = true;
    }
  }
  if (!fanned_out) {
    model::Allocation previous(instance.num_clouds, instance.num_users);
    for (std::size_t t = 0; t < num_slots; ++t) {
      decide_slot(algorithm, t, previous);
      previous = seq[t];
    }
  }
  SimulationResult result = score(instance, algorithm.name(), std::move(seq));
  result.wall_seconds = seconds_since(start);
  for (std::size_t t = 0; t < result.telemetry.slots.size(); ++t) {
    if (has_solve[t] != 0) {
      result.telemetry.slots[t].has_solve = true;
      result.telemetry.slots[t].solve = solve_stats[t];
    }
  }
  return result;
}

SimulationResult Simulator::score(const Instance& instance, std::string name,
                                  AllocationSequence allocations) {
  SimulationResult result;
  result.algorithm = std::move(name);
  result.cost = model::total_cost(instance, allocations);
  result.weighted_total = result.cost.total(instance.weights);
  result.per_slot.reserve(instance.num_slots);
  obs::RunTelemetry& run = result.telemetry;
  run.algorithm = result.algorithm;
  run.num_clouds = instance.num_clouds;
  run.num_users = instance.num_users;
  run.num_slots = instance.num_slots;
  run.total_cost = result.weighted_total;
  run.slots.reserve(instance.num_slots);
  const double wstat = instance.weights.static_weight;
  const double wdyn = instance.weights.dynamic_weight;
  for (std::size_t t = 0; t < instance.num_slots; ++t) {
    const model::CostBreakdown slot = model::slot_cost(
        instance, t, allocations[t], t > 0 ? &allocations[t - 1] : nullptr);
    result.per_slot.push_back(slot.total(instance.weights));
    obs::SlotTelemetry& st = run.slots.emplace_back();
    st.slot = t;
    st.cost_operation = wstat * slot.operation;
    st.cost_service_quality = wstat * slot.service_quality;
    st.cost_reconfiguration = wdyn * slot.reconfiguration;
    st.cost_migration = wdyn * slot.migration;
  }
  result.max_violation = model::max_violation(instance, allocations);
  result.allocations = std::move(allocations);
  return result;
}

}  // namespace eca::sim
