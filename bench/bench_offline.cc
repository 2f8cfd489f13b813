// Offline-opt horizon LP benchmark: the parallel PDHG solve.
//
// Emits `BENCH_offline.json` (path override: ECA_BENCH_OFFLINE_JSON, schema
// eca.bench_offline.v1) so future PRs have numbers to regress against.
//
// Sweep: random-walk instances with I = 15 clouds, J doubling from 16 up to
// ECA_OFFLINE_MAX_USERS (default 64) over ECA_OFFLINE_SLOTS slots (default
// 24). Each point builds the full-horizon LP and solves it with PdhgLp
// under a fixed iteration budget (ECA_OFFLINE_MAX_ITERS, default 20000 —
// first-order convergence on these LPs has a long tail, and capping the
// budget makes every leg do an identical, comparable amount of work), once
// with 1 LP thread and once with N (ECA_LP_THREADS if set, else 8), and
// cross-checks the two runs bitwise — the partitioned solve is required to
// be bit-identical to serial. Points that the adaptive granularity floor
// (or the hardware-concurrency cap; this matters on small CI machines)
// collapses to one worker reuse the serial measurement verbatim
// (pool_engaged=false, speedup 1.0): the N-thread leg would time the
// byte-identical serial path.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/offline.h"
#include "bench_common.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "solve/pdhg_lp.h"

namespace {

using namespace eca;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct OfflinePoint {
  std::size_t users = 0;
  std::size_t slots = 0;
  std::size_t rows = 0;
  std::size_t vars = 0;
  std::size_t nnz = 0;
  double seconds_1_thread = 0.0;
  double seconds_n_threads = 0.0;
  double speedup = 0.0;
  bool pool_engaged = false;
  int iterations = 0;
  double objective = 0.0;
  const char* status = "";
  bool bit_identical = false;
};

struct OfflinePerf {
  std::size_t clouds = 15;
  std::size_t threads = 0;
  int max_iterations = 0;
  double tolerance = 0.0;
  std::vector<OfflinePoint> points;
};

struct Leg {
  solve::LpSolution sol;
  double seconds = 0.0;
};

Leg solve_leg(const solve::LpProblem& lp, int lp_threads,
              const OfflinePerf& perf) {
  solve::PdhgOptions options;
  options.tolerance = perf.tolerance;
  options.max_iterations = perf.max_iterations;
  // Offline-denominator setting (see solve_offline): the primal objective
  // is what matters, don't wait for the slow dual certificate.
  options.gate_on_dual_residual = false;
  options.lp_threads = lp_threads;
  Leg leg;
  const auto start = std::chrono::steady_clock::now();
  leg.sol = solve::PdhgLp(options).solve(lp);
  leg.seconds = seconds_since(start);
  return leg;
}

OfflinePerf time_offline_sweep(const bench::BenchScale& scale) {
  OfflinePerf perf;
  const auto max_users = static_cast<std::size_t>(
      env_int("ECA_OFFLINE_MAX_USERS", 64, 1));
  const auto slots = static_cast<std::size_t>(
      env_int("ECA_OFFLINE_SLOTS", 24, 1));
  perf.max_iterations =
      static_cast<int>(env_int("ECA_OFFLINE_MAX_ITERS", 20000, 1));
  perf.tolerance = 5e-4;  // OfflineOptions::pdhg_tolerance
  // N-thread leg: honor an explicit ECA_LP_THREADS, else a reference point
  // of 8 LP threads.
  perf.threads = ThreadPool::resolve_lp_threads(0);
  if (perf.threads == 1) perf.threads = 8;
  for (std::size_t users = 16; users <= max_users; users *= 2) {
    sim::ScenarioOptions options = bench::scenario_from_scale(scale);
    options.num_users = users;
    options.num_slots = slots;
    options.seed = scale.seed + users;
    const model::Instance instance = sim::make_random_walk_instance(options);
    const solve::LpProblem lp = algo::build_offline_lp(instance);

    OfflinePoint point;
    point.users = users;
    point.slots = slots;
    point.rows = lp.num_rows;
    point.vars = lp.num_vars;
    point.nnz = lp.elements.size();

    const Leg serial = solve_leg(lp, 1, perf);
    point.seconds_1_thread = serial.seconds;
    point.iterations = serial.sol.iterations;
    point.objective = serial.sol.objective_value;
    point.status = solve::to_string(serial.sol.status);

    // Mirror the solver's own adaptive resolution (nonzeros-per-worker
    // floor + hardware cap) to decide whether the N-thread leg would
    // actually engage the pool.
    const std::size_t effective = ThreadPool::resolve_lp_threads(
        static_cast<int>(perf.threads), point.nnz, 32768);
    point.pool_engaged = effective > 1;
    if (point.pool_engaged) {
      const Leg parallel = solve_leg(lp, static_cast<int>(perf.threads), perf);
      point.seconds_n_threads = parallel.seconds;
      point.speedup = parallel.seconds > 0.0
                          ? serial.seconds / parallel.seconds
                          : 0.0;
      point.bit_identical =
          serial.sol.iterations == parallel.sol.iterations &&
          serial.sol.objective_value == parallel.sol.objective_value &&
          serial.sol.x == parallel.sol.x &&
          serial.sol.row_duals == parallel.sol.row_duals;
    } else {
      point.seconds_n_threads = point.seconds_1_thread;
      point.speedup = 1.0;
      point.bit_identical = true;
    }
    perf.points.push_back(point);
    std::printf(
        "offline J=%4zu T=%zu (%zu rows, %zu nnz): %.3fs (1 thr) -> %.3fs "
        "(%zu thr, pool=%s), %.2fx, %d iters (%s), bit_identical=%s\n",
        users, slots, point.rows, point.nnz, point.seconds_1_thread,
        point.seconds_n_threads, perf.threads,
        point.pool_engaged ? "on" : "off", point.speedup, point.iterations,
        point.status, point.bit_identical ? "true" : "false");
  }
  return perf;
}

void emit_json(const bench::BenchScale& scale, const OfflinePerf& perf,
               const bench::EventsOverhead& events) {
  const std::string path =
      env_string("ECA_BENCH_OFFLINE_JSON", "BENCH_offline.json");
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"eca.bench_offline.v1\",\n");
  bench::write_meta_json(out);
  bench::write_events_overhead_json(out, events);
  std::fprintf(out,
               "  \"scale\": {\"users\": %zu, \"slots\": %zu, "
               "\"repetitions\": %d, \"seed\": %llu},\n",
               scale.users, scale.slots, scale.repetitions,
               static_cast<unsigned long long>(scale.seed));
  std::fprintf(out, "  \"clouds\": %zu,\n", perf.clouds);
  std::fprintf(out, "  \"threads\": %zu,\n", perf.threads);
  std::fprintf(out, "  \"max_iterations\": %d,\n", perf.max_iterations);
  std::fprintf(out, "  \"tolerance\": %g,\n", perf.tolerance);
  std::fprintf(out, "  \"points\": [\n");
  for (std::size_t i = 0; i < perf.points.size(); ++i) {
    const OfflinePoint& p = perf.points[i];
    std::fprintf(out,
                 "    {\"users\": %zu, \"slots\": %zu, \"rows\": %zu, "
                 "\"vars\": %zu, \"nnz\": %zu, "
                 "\"seconds_1_thread\": %.4f, \"seconds_n_threads\": %.4f, "
                 "\"speedup\": %.3f, \"pool_engaged\": %s, "
                 "\"iterations\": %d, \"objective\": %.6f, "
                 "\"status\": \"%s\", \"bit_identical\": %s}%s\n",
                 p.users, p.slots, p.rows, p.vars, p.nnz, p.seconds_1_thread,
                 p.seconds_n_threads, p.speedup,
                 p.pool_engaged ? "true" : "false", p.iterations, p.objective,
                 p.status, p.bit_identical ? "true" : "false",
                 i + 1 < perf.points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  // Solver-telemetry block: process-lifetime lp.pdhg_* registry totals over
  // every solve above.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  std::fprintf(
      out,
      "  \"telemetry\": {\"pdhg_solves\": %llu, "
      "\"pdhg_iterations\": %llu, \"pdhg_restarts\": %llu, "
      "\"pdhg_seconds\": %.6f, \"pdhg_scale_seconds\": %.6f, "
      "\"pdhg_kernel_seconds\": %.6f, \"pdhg_kkt_seconds\": %.6f}\n",
      static_cast<unsigned long long>(snap.counter("lp.pdhg_solves")),
      static_cast<unsigned long long>(snap.counter("lp.pdhg_iterations")),
      static_cast<unsigned long long>(snap.counter("lp.pdhg_restarts")),
      snap.double_counter("lp.pdhg_seconds"),
      snap.double_counter("lp.pdhg_scale_seconds"),
      snap.double_counter("lp.pdhg_kernel_seconds"),
      snap.double_counter("lp.pdhg_kkt_seconds"));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  const eca::bench::BenchScale scale = eca::bench::read_scale();
  eca::bench::print_header("offline", "parallel PDHG horizon-LP sweep",
                           scale);
  const OfflinePerf perf = time_offline_sweep(scale);
  const eca::bench::EventsOverhead events =
      eca::bench::measure_default_events_overhead(scale);
  emit_json(scale, perf, events);
  return 0;
}
