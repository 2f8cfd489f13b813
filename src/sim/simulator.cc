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
  const std::size_t kBlock = algo::kBaselineWarmBlock;
  const std::size_t num_blocks = (num_slots + kBlock - 1) / kBlock;
  std::size_t workers = ThreadPool::resolve_baseline_threads(
      options.baseline_threads, work, min_work, !options.oversubscribe);
  workers = std::min(workers, num_blocks);

  std::size_t next_slot = 0;
  if (workers > 1 && num_slots > 1 && algorithm.slot_separable()) {
    // Slot 0 runs cold on the driving thread's own algorithm first: for
    // warm-started baselines it establishes the anchor solution the
    // clones' block heads restart from — the same order the serial loop
    // produces.
    const model::Allocation zero_previous(instance.num_clouds,
                                          instance.num_users);
    decide_slot(algorithm, 0, zero_previous);
    next_slot = 1;
    std::vector<algo::AlgorithmPtr> clones;
    clones.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      clones.push_back(algorithm.clone_for_slots());
      if (clones.back() == nullptr) break;  // unsupported: serial fallback
    }
    if (clones.empty() || clones.back() != nullptr) {
      // Static block → worker assignment: worker w takes blocks w, w+W,
      // w+2W, ... each in ascending slot order. Within a block the warm
      // chain runs slot-to-slot; block heads restart from the anchor, so
      // the trajectory is independent of which worker owns which block
      // and bit-identical to the serial loop.
      const auto worker_span = [&](std::size_t w,
                                   algo::OnlineAlgorithm& alg) {
        for (std::size_t k = w; k < num_blocks; k += workers) {
          const std::size_t lo = std::max<std::size_t>(1, k * kBlock);
          const std::size_t hi = std::min(num_slots, (k + 1) * kBlock);
          for (std::size_t t = lo; t < hi; ++t) {
            decide_slot(alg, t, zero_previous);
          }
        }
      };
      ThreadPool pool(workers - 1);
      for (std::size_t w = 1; w < workers; ++w) {
        algo::OnlineAlgorithm& alg = *clones[w - 1];
        pool.submit([&worker_span, w, &alg] { worker_span(w, alg); });
      }
      worker_span(0, algorithm);  // driving thread is worker 0
      pool.wait_idle();
      next_slot = num_slots;
    }
  }
  // Serial path — also the tail after a clone_for_slots() fallback, where
  // the original algorithm continues from slot 1 with its own state.
  model::Allocation previous(instance.num_clouds, instance.num_users);
  if (next_slot > 0 && next_slot < num_slots) previous = seq[next_slot - 1];
  for (std::size_t t = next_slot; t < num_slots; ++t) {
    decide_slot(algorithm, t, previous);
    previous = seq[t];
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
