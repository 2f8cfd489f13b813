// Baseline-evaluation benchmark: cached LP skeletons, the reused IPM
// workspace and the simulator's slot fan-out.
//
// Emits `BENCH_baselines.json` (path override: ECA_BENCH_BASELINES_JSON,
// schema eca.bench_baselines.v2) so future PRs have numbers to regress
// against.
//
// Sweep: random-walk instances with the default 15 clouds, J doubling from
// 16 up to ECA_BASELINE_MAX_USERS (default 64) over ECA_BASELINE_SLOTS
// slots (default 24). Each (algorithm, J) point runs three legs:
//
//   1. rebuild+cold — the reference: per slot, the free builder
//                     (build_static_slot_lp / build_greedy_slot_lp), a
//                     cold IPM solve in a fresh workspace and the
//                     extraction, called directly. static-once solves its
//                     one LP that way in reset() already, so both of its
//                     first legs run StaticOnce;
//   2. skeleton     — each algorithm's own path, serial: skeleton refresh
//                     and a cold solve in the reused workspace. It must
//                     equal leg 1 bit for bit (allocations and cost);
//   3. N-thread     — leg 2 dispatched over the simulator's slot fan-out
//                     (slot-separable algorithms only), cross-checked
//                     bitwise against leg 2.
//
// Points that the work-volume floor or the hardware-concurrency cap (this
// matters on small CI machines) collapse to one worker reuse the serial
// measurement verbatim (pool_engaged=false, speedup 1.0): the N-thread leg
// would time the byte-identical serial path.
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/baselines.h"
#include "algo/slot_lp.h"
#include "bench_common.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "solve/ipm_lp.h"

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
  std::size_t users = 0;
  std::size_t slots = 0;
  double seconds_rebuild_cold = 0.0;
  double seconds_skeleton = 0.0;
  double skeleton_speedup = 0.0;  // rebuild+cold / skeleton
  bool rebuild_bit_identical = false;  // leg 1 == leg 2
  double seconds_n_threads = 0.0;
  double speedup = 0.0;  // skeleton serial / N-thread
  bool pool_engaged = false;
  bool bit_identical = false;  // leg 3 == leg 2
  double weighted_total = 0.0;
  double max_violation = 0.0;
};

struct BaselinePerf {
  std::size_t clouds = 0;
  std::size_t threads = 0;
  std::vector<BaselinePoint> points;
};

using DecideFn = std::function<model::Allocation(
    const model::Instance&, std::size_t, const model::Allocation&)>;

// Leg 1 as an online algorithm, so the simulator rounds and scores it
// exactly as it does leg 2.
class DirectSlotLp final : public algo::OnlineAlgorithm {
 public:
  DirectSlotLp(std::string name, DecideFn decide)
      : name_(std::move(name)), decide_(std::move(decide)) {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] model::Allocation decide(
      const model::Instance& instance, std::size_t t,
      const model::Allocation& previous) override {
    return decide_(instance, t, previous);
  }

 private:
  std::string name_;
  DecideFn decide_;
};

solve::Vec cold_solve(const solve::LpProblem& lp) {
  solve::LpSolution sol = solve::InteriorPointLp().solve(lp);
  ECA_CHECK(sol.status == solve::SolveStatus::kOptimal,
            "reference slot LP failed: ", solve::to_string(sol.status));
  return std::move(sol.x);
}

algo::AlgorithmPtr direct_static(const char* name, bool operation,
                                 bool service_quality) {
  return std::make_unique<DirectSlotLp>(
      name, [operation, service_quality](const model::Instance& instance,
                                         std::size_t t,
                                         const model::Allocation&) {
        return algo::extract_static(
            instance, cold_solve(algo::build_static_slot_lp(
                          instance, t, operation, service_quality)
                                     .lp));
      });
}

algo::AlgorithmPtr direct_greedy() {
  return std::make_unique<DirectSlotLp>(
      "online-greedy",
      [](const model::Instance& instance, std::size_t t,
         const model::Allocation& previous) {
        const algo::GreedySlotLp built =
            algo::build_greedy_slot_lp(instance, t, previous);
        return built.extract(instance, cold_solve(built.lp));
      });
}

struct AlgoEntry {
  const char* name;
  bool separable;
  std::function<algo::AlgorithmPtr()> make_reference;  // leg 1
  std::function<algo::AlgorithmPtr()> make_default;    // legs 2 and 3
};

std::vector<AlgoEntry> roster() {
  return {
      {"perf-opt", true, [] { return direct_static("perf-opt", false, true); },
       [] { return std::make_unique<algo::PerfOpt>(); }},
      {"oper-opt", true, [] { return direct_static("oper-opt", true, false); },
       [] { return std::make_unique<algo::OperOpt>(); }},
      {"stat-opt", true, [] { return direct_static("stat-opt", true, true); },
       [] { return std::make_unique<algo::StatOpt>(); }},
      {"static-once", true, [] { return std::make_unique<algo::StaticOnce>(); },
       [] { return std::make_unique<algo::StaticOnce>(); }},
      {"online-greedy", false, direct_greedy,
       [] { return std::make_unique<algo::OnlineGreedy>(); }},
  };
}

struct Leg {
  sim::SimulationResult result;
  double seconds = 0.0;
};

Leg run_leg(const model::Instance& instance, algo::OnlineAlgorithm& algorithm,
            const sim::SimulatorOptions& options) {
  Leg leg;
  const auto start = std::chrono::steady_clock::now();
  leg.result = sim::Simulator::run(instance, algorithm, options);
  leg.seconds = seconds_since(start);
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
      point.users = users;
      point.slots = slots;

      sim::SimulatorOptions serial;
      serial.baseline_threads = 1;

      auto reference_algorithm = entry.make_reference();
      const Leg reference = run_leg(instance, *reference_algorithm, serial);
      point.seconds_rebuild_cold = reference.seconds;

      auto skeleton_algorithm = entry.make_default();
      const Leg skeleton = run_leg(instance, *skeleton_algorithm, serial);
      point.seconds_skeleton = skeleton.seconds;
      point.skeleton_speedup =
          skeleton.seconds > 0.0 ? reference.seconds / skeleton.seconds : 0.0;
      point.rebuild_bit_identical =
          runs_bitwise_equal(reference.result, skeleton.result);
      point.weighted_total = skeleton.result.weighted_total;
      point.max_violation = skeleton.result.max_violation;

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
            parallel.seconds > 0.0 ? skeleton.seconds / parallel.seconds : 0.0;
        point.bit_identical =
            runs_bitwise_equal(skeleton.result, parallel.result);
      } else {
        point.seconds_n_threads = point.seconds_skeleton;
        point.speedup = 1.0;
        point.bit_identical = true;
      }
      perf.points.push_back(point);
      std::printf(
          "baseline %-13s J=%4zu T=%zu: %.3fs (rebuild+cold) -> %.3fs "
          "(skeleton, %.2fx, equal=%s) -> %.3fs (%zu thr, pool=%s, %.2fx), "
          "bit_identical=%s\n",
          entry.name, users, slots, point.seconds_rebuild_cold,
          point.seconds_skeleton, point.skeleton_speedup,
          point.rebuild_bit_identical ? "true" : "false",
          point.seconds_n_threads, perf.threads,
          point.pool_engaged ? "on" : "off", point.speedup,
          point.bit_identical ? "true" : "false");
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
  std::fprintf(out, "  \"schema\": \"eca.bench_baselines.v2\",\n");
  bench::write_meta_json(out);
  bench::write_events_overhead_json(out, events);
  std::fprintf(out,
               "  \"scale\": {\"users\": %zu, \"slots\": %zu, "
               "\"repetitions\": %d, \"seed\": %llu},\n",
               scale.users, scale.slots, scale.repetitions,
               static_cast<unsigned long long>(scale.seed));
  std::fprintf(out, "  \"clouds\": %zu,\n", perf.clouds);
  std::fprintf(out, "  \"threads\": %zu,\n", perf.threads);
  std::fprintf(out, "  \"points\": [\n");
  for (std::size_t i = 0; i < perf.points.size(); ++i) {
    const BaselinePoint& p = perf.points[i];
    std::fprintf(
        out,
        "    {\"algorithm\": \"%s\", \"separable\": %s, \"users\": %zu, "
        "\"slots\": %zu, \"seconds_rebuild_cold\": %.4f, "
        "\"seconds_skeleton\": %.4f, \"skeleton_speedup\": %.3f, "
        "\"rebuild_bit_identical\": %s, "
        "\"seconds_n_threads\": %.4f, \"speedup\": %.3f, "
        "\"pool_engaged\": %s, \"bit_identical\": %s, "
        "\"weighted_total\": %.6f, \"max_violation\": %.3e}%s\n",
        p.algorithm, p.separable ? "true" : "false", p.users, p.slots,
        p.seconds_rebuild_cold, p.seconds_skeleton, p.skeleton_speedup,
        p.rebuild_bit_identical ? "true" : "false", p.seconds_n_threads,
        p.speedup, p.pool_engaged ? "true" : "false",
        p.bit_identical ? "true" : "false", p.weighted_total,
        p.max_violation, i + 1 < perf.points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  // Solver-telemetry block: process-lifetime baseline.* / ipm.* registry
  // totals over all legs.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  std::fprintf(
      out,
      "  \"telemetry\": {\"lp_solves\": %llu, \"lp_failures\": %llu, "
      "\"ipm_solves\": %llu, \"ipm_iterations\": %llu}\n",
      static_cast<unsigned long long>(snap.counter("baseline.lp_solves")),
      static_cast<unsigned long long>(snap.counter("baseline.lp_failures")),
      static_cast<unsigned long long>(snap.counter("ipm.solves")),
      static_cast<unsigned long long>(snap.counter("ipm.iterations")));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  const eca::bench::BenchScale scale = eca::bench::read_scale();
  std::printf("=== baselines: cached-skeleton / slot fan-out sweep ===\n");
  const BaselinePerf perf = time_baseline_sweep(scale);
  const eca::bench::EventsOverhead events =
      eca::bench::measure_default_events_overhead(scale);
  emit_json(scale, perf, events);
  return 0;
}
