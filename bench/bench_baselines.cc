// Baseline-evaluation benchmark: cached LP skeletons, warm-started IPM and
// the simulator's slot fan-out.
//
// Emits `BENCH_baselines.json` (path override: ECA_BENCH_BASELINES_JSON,
// schema eca.bench_baselines.v1) so future PRs have numbers to regress
// against.
//
// Sweep: random-walk instances with the default 15 clouds, J doubling from
// 16 up to ECA_BASELINE_MAX_USERS (default 64) over ECA_BASELINE_SLOTS
// slots (default 24). Each (algorithm, J) point runs three legs:
//
//   1. rebuild+cold    — BaselineOptions{reuse_skeleton=false}: from-scratch
//                        LP build and a cold IPM solve per slot (the legacy
//                        path, and the reference the perf gate holds the
//                        optimized path against);
//   2. skeleton+warm   — each algorithm's default path, serial: skeleton
//                        refresh + workspace-reused IPM, block-chain warm
//                        starts where the algorithm enables them
//                        (warm_enabled per point; online-greedy never
//                        warm-starts — its feasible set changes every
//                        slot — and the kBaselineWarmMaxUsers cap turns
//                        hints off at scale, where they cost iterations);
//   3. N-thread        — leg 2 dispatched over the simulator's slot fan-out
//                        (slot-separable algorithms only), cross-checked
//                        bitwise against leg 2.
//
// Wall-clock on shared/virtualized CI hosts is ±10% noisy, so each point
// also records the per-leg ipm.iterations counter delta (exact) and the
// perf guard keys its warm-vs-cold gate on that ratio.
//
// Points that the work-volume floor or the hardware-concurrency cap (this
// matters on small CI machines) collapse to one worker reuse the serial
// measurement verbatim (pool_engaged=false, speedup 1.0): the N-thread leg
// would time the byte-identical serial path. Warm starts move the solver
// trajectory, not the optimum, so legs 1 and 2 agree on cost only up to
// solver tolerance; the relative drift is recorded per point and gated.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algo/baselines.h"
#include "bench_common.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace {

using namespace eca;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct BaselinePoint {
  const char* algorithm = "";
  bool separable = false;
  bool warm_enabled = false;
  std::size_t users = 0;
  std::size_t slots = 0;
  double seconds_rebuild_cold = 0.0;
  double seconds_skeleton_warm = 0.0;
  double warm_speedup = 0.0;  // rebuild+cold / skeleton+warm
  // Total IPM iterations per leg (ipm.iterations counter delta).
  // Deterministic, unlike wall-clock on noisy hosts —
  // the perf guard's warm-vs-cold gate keys on these.
  std::uint64_t iters_rebuild_cold = 0;
  std::uint64_t iters_skeleton_warm = 0;
  double warm_iter_ratio = 0.0;  // skeleton+warm / rebuild+cold iterations
  double seconds_n_threads = 0.0;
  double speedup = 0.0;  // skeleton+warm serial / N-thread
  bool pool_engaged = false;
  bool bit_identical = false;
  double cost_drift = 0.0;  // |warm - cold| / (1 + |cold|)
  double weighted_total = 0.0;
  double max_violation = 0.0;
};

struct BaselinePerf {
  std::size_t clouds = 0;
  std::size_t threads = 0;
  std::vector<BaselinePoint> points;
};

struct AlgoEntry {
  const char* name;
  bool separable;
  // Whether the algorithm's DEFAULT path chains warm starts (the gate only
  // requires warm_speedup > 1 where warm starts are actually on).
  bool warm_enabled;
  // Legacy (rebuild+cold) construction for leg 1.
  std::function<algo::AlgorithmPtr()> make_legacy;
  // Default construction for legs 2 and 3 — each algorithm's own
  // BaselineOptions default, NOT a bench-side override.
  std::function<algo::AlgorithmPtr()> make_default;
};

std::vector<AlgoEntry> roster() {
  const algo::BaselineOptions legacy{.reuse_skeleton = false,
                                     .warm_start = false};
  return {
      {"perf-opt", true, true,
       [legacy] { return std::make_unique<algo::PerfOpt>(legacy); },
       [] { return std::make_unique<algo::PerfOpt>(); }},
      {"oper-opt", true, true,
       [legacy] { return std::make_unique<algo::OperOpt>(legacy); },
       [] { return std::make_unique<algo::OperOpt>(); }},
      {"stat-opt", true, true,
       [legacy] { return std::make_unique<algo::StatOpt>(legacy); },
       [] { return std::make_unique<algo::StatOpt>(); }},
      {"static-once", true, false,
       [] { return std::make_unique<algo::StaticOnce>(); },
       [] { return std::make_unique<algo::StaticOnce>(); }},
      {"online-greedy", false, false,
       [legacy] { return std::make_unique<algo::OnlineGreedy>(legacy); },
       [] { return std::make_unique<algo::OnlineGreedy>(); }},
  };
}

struct Leg {
  sim::SimulationResult result;
  double seconds = 0.0;
  std::uint64_t ipm_iterations = 0;
};

std::uint64_t ipm_iterations_now() {
  return obs::MetricsRegistry::global().snapshot().counter("ipm.iterations");
}

Leg run_leg(const model::Instance& instance, algo::OnlineAlgorithm& algorithm,
            const sim::SimulatorOptions& options) {
  Leg leg;
  const std::uint64_t iters_before = ipm_iterations_now();
  const auto start = std::chrono::steady_clock::now();
  leg.result = sim::Simulator::run(instance, algorithm, options);
  leg.seconds = seconds_since(start);
  leg.ipm_iterations = ipm_iterations_now() - iters_before;
  return leg;
}

bool runs_bitwise_equal(const sim::SimulationResult& a,
                        const sim::SimulationResult& b) {
  if (a.allocations.size() != b.allocations.size()) return false;
  for (std::size_t t = 0; t < a.allocations.size(); ++t) {
    if (a.allocations[t].x != b.allocations[t].x) return false;
  }
  return a.weighted_total == b.weighted_total && a.per_slot == b.per_slot;
}

BaselinePerf time_baseline_sweep(const bench::BenchScale& scale) {
  BaselinePerf perf;
  const auto max_users = static_cast<std::size_t>(
      env_int("ECA_BASELINE_MAX_USERS", 64, 1));
  const auto slots = static_cast<std::size_t>(
      env_int("ECA_BASELINE_SLOTS", 24, 1));
  // N-thread leg: honor an explicit ECA_BASELINE_THREADS, else a reference
  // point of 8 workers.
  perf.threads = ThreadPool::resolve_baseline_threads(0);
  if (perf.threads == 1) perf.threads = 8;

  for (std::size_t users = 16; users <= max_users; users *= 2) {
    sim::ScenarioOptions options = bench::scenario_from_scale(scale);
    options.num_users = users;
    options.num_slots = slots;
    options.seed = scale.seed + users;
    const model::Instance instance = sim::make_random_walk_instance(options);
    perf.clouds = instance.num_clouds;

    for (const AlgoEntry& entry : roster()) {
      BaselinePoint point;
      point.algorithm = entry.name;
      point.separable = entry.separable;
      // Warm starts engage only under the size cap (see
      // algo::kBaselineWarmMaxUsers — hints stop paying at scale).
      point.warm_enabled =
          entry.warm_enabled && users <= algo::kBaselineWarmMaxUsers;
      point.users = users;
      point.slots = slots;

      sim::SimulatorOptions serial;
      serial.baseline_threads = 1;

      auto cold_algorithm = entry.make_legacy();
      const Leg cold = run_leg(instance, *cold_algorithm, serial);
      point.seconds_rebuild_cold = cold.seconds;

      auto warm_algorithm = entry.make_default();
      const Leg warm = run_leg(instance, *warm_algorithm, serial);
      point.seconds_skeleton_warm = warm.seconds;
      point.warm_speedup =
          warm.seconds > 0.0 ? cold.seconds / warm.seconds : 0.0;
      point.iters_rebuild_cold = cold.ipm_iterations;
      point.iters_skeleton_warm = warm.ipm_iterations;
      point.warm_iter_ratio =
          cold.ipm_iterations > 0
              ? static_cast<double>(warm.ipm_iterations) /
                    static_cast<double>(cold.ipm_iterations)
              : 0.0;
      point.weighted_total = warm.result.weighted_total;
      point.max_violation = warm.result.max_violation;
      point.cost_drift =
          std::fabs(warm.result.weighted_total - cold.result.weighted_total) /
          (1.0 + std::fabs(cold.result.weighted_total));

      // Mirror the simulator's own resolution (work-volume floor +
      // hardware cap) to decide whether the N-thread leg would actually
      // engage the pool.
      const std::size_t work =
          slots * instance.num_clouds * instance.num_users;
      const std::size_t effective = ThreadPool::resolve_baseline_threads(
          static_cast<int>(perf.threads), work,
          ThreadPool::kDefaultBaselineMinWork);
      point.pool_engaged = entry.separable && effective > 1 && slots > 1;
      if (point.pool_engaged) {
        sim::SimulatorOptions fanout;
        fanout.baseline_threads = static_cast<int>(perf.threads);
        auto parallel_algorithm = entry.make_default();
        const Leg parallel = run_leg(instance, *parallel_algorithm, fanout);
        point.seconds_n_threads = parallel.seconds;
        point.speedup =
            parallel.seconds > 0.0 ? warm.seconds / parallel.seconds : 0.0;
        point.bit_identical = runs_bitwise_equal(warm.result, parallel.result);
      } else {
        point.seconds_n_threads = point.seconds_skeleton_warm;
        point.speedup = 1.0;
        point.bit_identical = true;
      }
      perf.points.push_back(point);
      std::printf(
          "baseline %-13s J=%4zu T=%zu: %.3fs (rebuild+cold) -> %.3fs "
          "(%s, %.2fx, iters %llu->%llu) -> %.3fs (%zu thr, pool=%s, "
          "%.2fx), bit_identical=%s drift=%.2e\n",
          entry.name, users, slots, point.seconds_rebuild_cold,
          point.seconds_skeleton_warm,
          point.warm_enabled ? "skeleton+warm" : "skeleton",
          point.warm_speedup,
          static_cast<unsigned long long>(point.iters_rebuild_cold),
          static_cast<unsigned long long>(point.iters_skeleton_warm),
          point.seconds_n_threads, perf.threads,
          point.pool_engaged ? "on" : "off", point.speedup,
          point.bit_identical ? "true" : "false", point.cost_drift);
    }
  }
  return perf;
}

void emit_json(const bench::BenchScale& scale, const BaselinePerf& perf,
               const bench::EventsOverhead& events) {
  const std::string path =
      env_string("ECA_BENCH_BASELINES_JSON", "BENCH_baselines.json");
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"eca.bench_baselines.v1\",\n");
  bench::write_meta_json(out);
  bench::write_events_overhead_json(out, events);
  std::fprintf(out,
               "  \"scale\": {\"users\": %zu, \"slots\": %zu, "
               "\"repetitions\": %d, \"seed\": %llu},\n",
               scale.users, scale.slots, scale.repetitions,
               static_cast<unsigned long long>(scale.seed));
  std::fprintf(out, "  \"clouds\": %zu,\n", perf.clouds);
  std::fprintf(out, "  \"threads\": %zu,\n", perf.threads);
  std::fprintf(out, "  \"warm_block\": %zu,\n", algo::kBaselineWarmBlock);
  std::fprintf(out, "  \"warm_max_users\": %zu,\n",
               algo::kBaselineWarmMaxUsers);
  std::fprintf(out, "  \"points\": [\n");
  for (std::size_t i = 0; i < perf.points.size(); ++i) {
    const BaselinePoint& p = perf.points[i];
    std::fprintf(
        out,
        "    {\"algorithm\": \"%s\", \"separable\": %s, "
        "\"warm_enabled\": %s, \"users\": %zu, "
        "\"slots\": %zu, \"seconds_rebuild_cold\": %.4f, "
        "\"seconds_skeleton_warm\": %.4f, \"warm_speedup\": %.3f, "
        "\"iters_rebuild_cold\": %llu, \"iters_skeleton_warm\": %llu, "
        "\"warm_iter_ratio\": %.4f, "
        "\"seconds_n_threads\": %.4f, \"speedup\": %.3f, "
        "\"pool_engaged\": %s, \"bit_identical\": %s, "
        "\"cost_drift\": %.3e, \"weighted_total\": %.6f, "
        "\"max_violation\": %.3e}%s\n",
        p.algorithm, p.separable ? "true" : "false",
        p.warm_enabled ? "true" : "false", p.users, p.slots,
        p.seconds_rebuild_cold, p.seconds_skeleton_warm, p.warm_speedup,
        static_cast<unsigned long long>(p.iters_rebuild_cold),
        static_cast<unsigned long long>(p.iters_skeleton_warm),
        p.warm_iter_ratio, p.seconds_n_threads, p.speedup,
        p.pool_engaged ? "true" : "false",
        p.bit_identical ? "true" : "false", p.cost_drift, p.weighted_total,
        p.max_violation, i + 1 < perf.points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  // Solver-telemetry block: process-lifetime baseline.* / ipm.* registry
  // totals over all legs.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  std::fprintf(
      out,
      "  \"telemetry\": {\"lp_solves\": %llu, \"lp_failures\": %llu, "
      "\"warm_chained\": %llu, \"anchor_restarts\": %llu, "
      "\"ipm_solves\": %llu, \"ipm_iterations\": %llu, "
      "\"ipm_warm_accepted\": %llu, \"ipm_warm_fallbacks\": %llu}\n",
      static_cast<unsigned long long>(snap.counter("baseline.lp_solves")),
      static_cast<unsigned long long>(snap.counter("baseline.lp_failures")),
      static_cast<unsigned long long>(snap.counter("baseline.warm_chained")),
      static_cast<unsigned long long>(
          snap.counter("baseline.anchor_restarts")),
      static_cast<unsigned long long>(snap.counter("ipm.solves")),
      static_cast<unsigned long long>(snap.counter("ipm.iterations")),
      static_cast<unsigned long long>(snap.counter("ipm.warm_accepted")),
      static_cast<unsigned long long>(snap.counter("ipm.warm_fallbacks")));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  const eca::bench::BenchScale scale = eca::bench::read_scale();
  std::printf(
      "=== baselines: cached-skeleton / warm-start / slot fan-out sweep ===\n");
  const BaselinePerf perf = time_baseline_sweep(scale);
  const eca::bench::EventsOverhead events =
      eca::bench::measure_default_events_overhead(scale);
  emit_json(scale, perf, events);
  return 0;
}
