// Solver microbenchmarks + the repo's performance trajectory harness.
//
// Always runs a timing pass and emits `BENCH_solvers.json` (path override:
// ECA_BENCH_JSON, schema eca.bench_solvers.v3) so future PRs have numbers
// to regress against:
//  * Newton hot path — a slot sequence of P2 solves with a reused
//    NewtonWorkspace (the OnlineApprox inner loop): slots/sec, Newton
//    iterations, ns per Newton iteration.
//  * Experiment runner — run_experiment at the ECA_* default scale with 1
//    thread vs ECA_THREADS (default: hardware concurrency): wall seconds,
//    speedup, and a bit-identical check on the merged statistics.
//  * Slot sweep — per-slot solve time vs user count J (I = 15 fixed,
//    J = 64 doubling up to ECA_SWEEP_MAX_USERS, default 8192;
//    ECA_SWEEP_SLOTS random-walk slots per point, default 4): dense slot ms
//    with 1 intra-slot thread vs N (ECA_SLOT_THREADS if set, else 8) under
//    the adaptive-granularity floor, speedup, warm vs cold Newton
//    iterations, and a bit-identical cross-check of the 1-thread and
//    N-thread trajectories. Points the floor collapses to serial reuse the
//    1-thread measurement (pool_engaged=false, speedup 1.0) — the N-thread
//    leg would time the byte-identical serial path.
//  * Warm start — a fixed random-walk trajectory solved warm and cold:
//    mean Newton iterations per slot and the relative reduction.
//
// The original google-benchmark suite (InteriorPointLp / PdhgLp /
// RegularizedSolver scaling) still runs when ECA_GBENCH=1.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/baselines.h"
#include "algo/online_approx.h"
#include "bench_common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "solve/ipm_lp.h"
#include "solve/pdhg_lp.h"
#include "solve/regularized_solver.h"

namespace {

using namespace eca;
using namespace eca::solve;

LpProblem random_lp(Rng& rng, std::size_t n, std::size_t m) {
  LpProblem lp;
  linalg::Vec x0(n);
  for (std::size_t j = 0; j < n; ++j) {
    x0[j] = rng.uniform(0.2, 2.0);
    lp.add_variable(rng.uniform(0.1, 2.0), 0.0, x0[j] + rng.uniform(0.5, 2.0));
  }
  for (std::size_t r = 0; r < m; ++r) {
    double activity = 0.0;
    const auto row = lp.add_row(0.0, kInf);
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.uniform() < 0.3) {
        const double a = rng.uniform(0.1, 1.5);
        lp.set_coefficient(row, j, a);
        activity += a * x0[j];
      }
    }
    lp.row_lower[row] = activity - rng.uniform(0.05, 0.5);
  }
  return lp;
}

RegularizedProblem random_p2(Rng& rng, std::size_t clouds,
                             std::size_t users) {
  RegularizedProblem p;
  p.num_clouds = clouds;
  p.num_users = users;
  p.demand.resize(users);
  for (auto& d : p.demand) d = static_cast<double>(rng.uniform_int(1, 5));
  const double total = linalg::sum(p.demand);
  p.capacity.assign(clouds, 1.25 * total / static_cast<double>(clouds));
  p.linear_cost.resize(clouds * users);
  for (auto& v : p.linear_cost) v = rng.uniform(0.5, 3.0);
  p.recon_price.assign(clouds, 1.0);
  p.migration_price.assign(clouds, 1.0);
  p.prev.assign(clouds * users, 0.0);
  for (std::size_t j = 0; j < users; ++j) {
    p.prev[p.index(rng.uniform_index(clouds), j)] = p.demand[j];
  }
  return p;
}

void BM_InteriorPointLp(benchmark::State& state) {
  Rng rng(42);
  const auto n = static_cast<std::size_t>(state.range(0));
  const LpProblem lp = random_lp(rng, n, n / 2);
  for (auto _ : state) {
    const LpSolution sol = InteriorPointLp().solve(lp);
    benchmark::DoNotOptimize(sol.objective_value);
  }
}
BENCHMARK(BM_InteriorPointLp)->Arg(50)->Arg(200)->Arg(800);

void BM_PdhgLp(benchmark::State& state) {
  Rng rng(42);
  const auto n = static_cast<std::size_t>(state.range(0));
  const LpProblem lp = random_lp(rng, n, n / 2);
  PdhgOptions options;
  options.tolerance = 1e-5;
  for (auto _ : state) {
    const LpSolution sol = PdhgLp(options).solve(lp);
    benchmark::DoNotOptimize(sol.objective_value);
  }
}
BENCHMARK(BM_PdhgLp)->Arg(50)->Arg(200)->Arg(800);

void BM_RegularizedSolver(benchmark::State& state) {
  Rng rng(42);
  const auto users = static_cast<std::size_t>(state.range(0));
  const RegularizedProblem p = random_p2(rng, 15, users);
  for (auto _ : state) {
    const RegularizedSolution sol = RegularizedSolver().solve(p);
    benchmark::DoNotOptimize(sol.objective_value);
  }
}
// 15 clouds as in the paper; users span CI to paper scale (~300).
BENCHMARK(BM_RegularizedSolver)->Arg(30)->Arg(100)->Arg(300);

// ---------------------------------------------------------------------------
// BENCH_solvers.json harness
// ---------------------------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct NewtonPerf {
  std::size_t clouds = 0;
  std::size_t users = 0;
  std::size_t slots_solved = 0;
  long long newton_iterations = 0;
  double seconds = 0.0;
};

// The OnlineApprox inner loop in isolation: a slot sequence of same-shaped
// P2 solves, each warm-started from the previous optimum, with a reused
// workspace (zero allocations in the Newton loop after slot 0).
NewtonPerf time_newton_path(const bench::BenchScale& scale) {
  NewtonPerf perf;
  perf.clouds = 15;  // the paper's Rome deployment size
  perf.users = scale.users;
  Rng rng(scale.seed);
  RegularizedProblem p = random_p2(rng, perf.clouds, perf.users);
  RegularizedSolver solver;
  NewtonWorkspace ws;
  (void)solver.solve(p, ws);  // warm-up: workspace sizing, caches
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < scale.slots; ++t) {
    const RegularizedSolution sol = solver.solve(p, ws);
    perf.newton_iterations += sol.newton_iterations;
    ++perf.slots_solved;
    p.prev = sol.x;  // next slot continues the path
  }
  perf.seconds = seconds_since(start);
  return perf;
}

bool stats_bit_identical(const RunningStats& a, const RunningStats& b) {
  return a.count() == b.count() && a.mean() == b.mean() &&
         a.variance() == b.variance() && a.min() == b.min() &&
         a.max() == b.max();
}

bool results_bit_identical(const sim::ExperimentResult& a,
                           const sim::ExperimentResult& b) {
  if (!stats_bit_identical(a.offline_cost, b.offline_cost)) return false;
  if (a.algorithms.size() != b.algorithms.size()) return false;
  for (std::size_t i = 0; i < a.algorithms.size(); ++i) {
    const auto& sa = a.algorithms[i];
    const auto& sb = b.algorithms[i];
    if (sa.name != sb.name) return false;
    if (!stats_bit_identical(sa.ratio, sb.ratio)) return false;
    if (!stats_bit_identical(sa.absolute_cost, sb.absolute_cost)) return false;
    if (sa.worst_violation != sb.worst_violation) return false;
  }
  return true;
}

struct RunnerPerf {
  std::size_t threads = 1;
  double seconds_one_thread = 0.0;
  double seconds_n_threads = 0.0;
  bool bit_identical = false;
};

RunnerPerf time_runner(const bench::BenchScale& scale) {
  RunnerPerf perf;
  perf.threads = ThreadPool::resolve_threads(0);
  const auto make_instance = [&scale](int rep) {
    sim::ScenarioOptions options = bench::scenario_from_scale(scale);
    options.seed = scale.seed + 1000 * static_cast<std::uint64_t>(rep);
    return sim::make_random_walk_instance(options);
  };
  const auto roster = sim::paper_algorithms();
  sim::ExperimentOptions experiment;
  experiment.repetitions = scale.repetitions;

  experiment.threads = 1;
  auto start = std::chrono::steady_clock::now();
  const sim::ExperimentResult serial =
      sim::run_experiment(make_instance, roster, experiment);
  perf.seconds_one_thread = seconds_since(start);

  experiment.threads = static_cast<int>(perf.threads);
  start = std::chrono::steady_clock::now();
  const sim::ExperimentResult parallel =
      sim::run_experiment(make_instance, roster, experiment);
  perf.seconds_n_threads = seconds_since(start);

  perf.bit_identical = results_bit_identical(serial, parallel);
  return perf;
}

// ---------------------------------------------------------------------------
// Slot sweep + warm start (v2 sections)
// ---------------------------------------------------------------------------

struct TrajectoryPerf {
  double seconds = 0.0;
  long long newton_iterations = 0;
  std::size_t slots = 0;
  linalg::Vec final_x;
};

// Solves a random-walk slot trajectory (costs perturbed ±10% per slot, prev
// chained from the previous optimum) with one workspace, as OnlineApprox
// does. The walk RNG is re-seeded per call so every configuration sees
// byte-identical problems.
TrajectoryPerf run_trajectory(const RegularizedProblem& base,
                              std::size_t slots, int slot_threads,
                              bool warm_start, std::uint64_t walk_seed) {
  RegularizedOptions opt;
  opt.slot_threads = slot_threads;
  opt.warm_start = warm_start;
  RegularizedSolver solver(opt);
  NewtonWorkspace ws;
  RegularizedProblem p = base;
  Rng walk(walk_seed);
  TrajectoryPerf perf;
  perf.slots = slots;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < slots; ++t) {
    const RegularizedSolution sol = solver.solve(p, ws);
    perf.newton_iterations += sol.newton_iterations;
    if (t + 1 == slots) perf.final_x = sol.x;
    p.prev = sol.x;
    for (auto& v : p.linear_cost) v *= walk.uniform(0.9, 1.1);
  }
  perf.seconds = seconds_since(start);
  return perf;
}

struct SweepPoint {
  std::size_t users = 0;
  double slot_ms_1_thread = 0.0;
  double slot_ms_n_threads = 0.0;
  double speedup = 0.0;
  // Whether the adaptive granularity floor let the N-thread leg actually
  // engage the pool; when false the serial measurement is reused verbatim.
  bool pool_engaged = false;
  long long newton_iters_warm = 0;
  long long newton_iters_cold = 0;
  bool bit_identical = false;
};

struct SweepPerf {
  std::size_t clouds = 15;
  std::size_t slots_per_point = 0;
  std::size_t threads = 0;
  std::vector<SweepPoint> points;
};

SweepPerf time_slot_sweep(const bench::BenchScale& scale) {
  SweepPerf sweep;
  const auto max_users = static_cast<std::size_t>(
      env_int("ECA_SWEEP_MAX_USERS", 8192, 1));
  sweep.slots_per_point = static_cast<std::size_t>(
      env_int("ECA_SWEEP_SLOTS", 4, 1));
  // N-thread leg: honor an explicit ECA_SLOT_THREADS, else the issue's
  // reference point of 8 intra-slot threads.
  sweep.threads = ThreadPool::resolve_slot_threads(0);
  if (sweep.threads == 1) sweep.threads = 8;
  for (std::size_t users = 64; users <= max_users; users *= 2) {
    Rng rng(scale.seed + users);
    const RegularizedProblem base = random_p2(rng, sweep.clouds, users);
    const std::uint64_t walk_seed = scale.seed + 7 * users + 1;
    const TrajectoryPerf one =
        run_trajectory(base, sweep.slots_per_point, 1, true, walk_seed);
    const TrajectoryPerf cold =
        run_trajectory(base, sweep.slots_per_point, 1, false, walk_seed);
    SweepPoint point;
    point.users = users;
    point.slot_ms_1_thread =
        one.seconds * 1e3 / static_cast<double>(one.slots);
    // Mirror the solver's own adaptive resolution: when the min-work floor
    // or the hardware-concurrency cap collapses this point to one worker,
    // the N-thread leg runs the byte-identical serial path, so reuse the
    // serial measurement instead of timing it twice.
    const std::size_t effective = ThreadPool::resolve_slot_threads(
        static_cast<int>(sweep.threads), users, ThreadPool::slot_min_chunk());
    point.pool_engaged = effective > 1;
    if (point.pool_engaged) {
      const TrajectoryPerf many =
          run_trajectory(base, sweep.slots_per_point,
                         static_cast<int>(sweep.threads), true, walk_seed);
      point.slot_ms_n_threads =
          many.seconds * 1e3 / static_cast<double>(many.slots);
      point.speedup =
          many.seconds > 0.0 ? one.seconds / many.seconds : 0.0;
      point.bit_identical =
          one.newton_iterations == many.newton_iterations &&
          one.final_x == many.final_x;
    } else {
      point.slot_ms_n_threads = point.slot_ms_1_thread;
      point.speedup = 1.0;
      point.bit_identical = true;
    }
    point.newton_iters_warm = one.newton_iterations;
    point.newton_iters_cold = cold.newton_iterations;
    sweep.points.push_back(point);
    std::printf(
        "sweep J=%5zu: %.2f ms/slot (1 thr), %.2f ms/slot (%zu thr, "
        "pool=%s), %.2fx, iters warm/cold %lld/%lld, bit_identical=%s\n",
        users, point.slot_ms_1_thread, point.slot_ms_n_threads,
        sweep.threads, point.pool_engaged ? "on" : "off", point.speedup,
        point.newton_iters_warm, point.newton_iters_cold,
        point.bit_identical ? "true" : "false");
  }
  return sweep;
}

struct WarmStartPerf {
  std::size_t clouds = 15;
  std::size_t users = 0;
  std::size_t slots = 0;
  double mean_iters_warm = 0.0;
  double mean_iters_cold = 0.0;
  double iteration_reduction = 0.0;
};

WarmStartPerf time_warm_start(const bench::BenchScale& scale) {
  WarmStartPerf perf;
  perf.users = 300;  // paper-scale user count
  // Long enough that slot 0 (necessarily cold in both runs) does not
  // dilute the per-slot mean.
  perf.slots = 24;
  Rng rng(scale.seed + 17);
  const RegularizedProblem base = random_p2(rng, perf.clouds, perf.users);
  const std::uint64_t walk_seed = scale.seed + 23;
  const TrajectoryPerf warm =
      run_trajectory(base, perf.slots, 1, true, walk_seed);
  const TrajectoryPerf cold =
      run_trajectory(base, perf.slots, 1, false, walk_seed);
  perf.mean_iters_warm = static_cast<double>(warm.newton_iterations) /
                         static_cast<double>(perf.slots);
  perf.mean_iters_cold = static_cast<double>(cold.newton_iterations) /
                         static_cast<double>(perf.slots);
  perf.iteration_reduction =
      perf.mean_iters_cold > 0.0
          ? 1.0 - perf.mean_iters_warm / perf.mean_iters_cold
          : 0.0;
  return perf;
}

void emit_json(const bench::BenchScale& scale, const NewtonPerf& newton,
               const RunnerPerf& runner, const SweepPerf& sweep,
               const WarmStartPerf& warm,
               const bench::EventsOverhead& events) {
  const std::string path = env_string("ECA_BENCH_JSON", "BENCH_solvers.json");
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  const double ns_per_iter =
      newton.newton_iterations > 0
          ? newton.seconds * 1e9 / static_cast<double>(newton.newton_iterations)
          : 0.0;
  const double slots_per_sec =
      newton.seconds > 0.0
          ? static_cast<double>(newton.slots_solved) / newton.seconds
          : 0.0;
  const double speedup = runner.seconds_n_threads > 0.0
                             ? runner.seconds_one_thread /
                                   runner.seconds_n_threads
                             : 0.0;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"eca.bench_solvers.v3\",\n");
  bench::write_meta_json(out);
  bench::write_events_overhead_json(out, events);
  std::fprintf(out,
               "  \"scale\": {\"users\": %zu, \"slots\": %zu, "
               "\"repetitions\": %d, \"seed\": %llu},\n",
               scale.users, scale.slots, scale.repetitions,
               static_cast<unsigned long long>(scale.seed));
  std::fprintf(out,
               "  \"newton\": {\"clouds\": %zu, \"users\": %zu, "
               "\"slots_solved\": %zu, \"newton_iterations\": %lld, "
               "\"seconds\": %.6f, \"slots_per_sec\": %.2f, "
               "\"ns_per_iteration\": %.1f},\n",
               newton.clouds, newton.users, newton.slots_solved,
               newton.newton_iterations, newton.seconds, slots_per_sec,
               ns_per_iter);
  std::fprintf(out,
               "  \"runner\": {\"threads\": %zu, \"seconds_1_thread\": %.4f, "
               "\"seconds_n_threads\": %.4f, \"speedup\": %.3f, "
               "\"bit_identical\": %s},\n",
               runner.threads, runner.seconds_one_thread,
               runner.seconds_n_threads, speedup,
               runner.bit_identical ? "true" : "false");
  std::fprintf(out,
               "  \"slot_sweep\": {\"clouds\": %zu, \"slots_per_point\": %zu, "
               "\"threads\": %zu, \"points\": [\n",
               sweep.clouds, sweep.slots_per_point, sweep.threads);
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const SweepPoint& p = sweep.points[i];
    std::fprintf(out,
                 "    {\"users\": %zu, \"slot_ms_1_thread\": %.3f, "
                 "\"slot_ms_n_threads\": %.3f, \"speedup\": %.3f, "
                 "\"pool_engaged\": %s, "
                 "\"newton_iters_warm\": %lld, \"newton_iters_cold\": %lld, "
                 "\"bit_identical\": %s}%s\n",
                 p.users, p.slot_ms_1_thread, p.slot_ms_n_threads, p.speedup,
                 p.pool_engaged ? "true" : "false", p.newton_iters_warm,
                 p.newton_iters_cold, p.bit_identical ? "true" : "false",
                 i + 1 < sweep.points.size() ? "," : "");
  }
  std::fprintf(out, "  ]},\n");
  // Solver-telemetry block: process-lifetime registry totals over
  // everything the harness above solved. Additive — readers of
  // eca.bench_solvers.v3 ignore it.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  std::fprintf(
      out,
      "  \"telemetry\": {\"solves\": %llu, \"newton_iterations\": %llu, "
      "\"warm_starts\": %llu, \"warm_fallbacks\": %llu, "
      "\"assembly_seconds\": %.6f, \"factor_seconds\": %.6f, "
      "\"solve_seconds\": %.6f},\n",
      static_cast<unsigned long long>(snap.counter("solver.solves")),
      static_cast<unsigned long long>(snap.counter("solver.newton_iterations")),
      static_cast<unsigned long long>(snap.counter("solver.warm_starts")),
      static_cast<unsigned long long>(snap.counter("solver.warm_fallbacks")),
      snap.double_counter("solver.assembly_seconds"),
      snap.double_counter("solver.factor_seconds"),
      snap.double_counter("solver.solve_seconds"));
  std::fprintf(out,
               "  \"warm_start\": {\"clouds\": %zu, \"users\": %zu, "
               "\"slots\": %zu, \"mean_iters_warm\": %.3f, "
               "\"mean_iters_cold\": %.3f, \"iteration_reduction\": %.3f}\n",
               warm.clouds, warm.users, warm.slots, warm.mean_iters_warm,
               warm.mean_iters_cold, warm.iteration_reduction);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  std::printf("newton: %zu slots, %lld iters, %.1f slots/sec, %.0f ns/iter\n",
              newton.slots_solved, newton.newton_iterations, slots_per_sec,
              ns_per_iter);
  std::printf("runner: %zu threads, %.2fs -> %.2fs (%.2fx), bit_identical=%s\n",
              runner.threads, runner.seconds_one_thread,
              runner.seconds_n_threads, speedup,
              runner.bit_identical ? "true" : "false");
  std::printf("warm start (J=%zu, %zu slots): %.1f -> %.1f iters/slot "
              "(%.0f%% fewer)\n",
              warm.users, warm.slots, warm.mean_iters_cold,
              warm.mean_iters_warm, 100.0 * warm.iteration_reduction);
}

}  // namespace

int main(int argc, char** argv) {
  const eca::bench::BenchScale scale = eca::bench::read_scale();
  eca::bench::print_header("solvers", "perf trajectory harness", scale);

  const NewtonPerf newton = time_newton_path(scale);
  const RunnerPerf runner = time_runner(scale);
  const SweepPerf sweep = time_slot_sweep(scale);
  const WarmStartPerf warm = time_warm_start(scale);
  const eca::bench::EventsOverhead events =
      eca::bench::measure_default_events_overhead(scale);
  emit_json(scale, newton, runner, sweep, warm, events);

  if (eca::env_bool("ECA_GBENCH", false)) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
