// Scale benchmark for the exact user-class aggregation layer (src/agg,
// sim/aggregated.h): per-user online-approx vs the streaming class-space
// driver over a J sweep, plus one million-user long-horizon leg.
//
// Emits `BENCH_scale.json` (path override: ECA_BENCH_SCALE_JSON, schema
// eca.bench_scale.v1).
//
// Sweep: random-walk instances with the default 15 clouds, J multiplying by
// 10 from ECA_SCALE_MIN_USERS (default 10^3) to ECA_SCALE_MAX_USERS
// (default 10^6) over ECA_SCALE_SLOTS slots (default 6 — short horizons are
// where classes collapse hardest; see DESIGN.md §12 for the fragmentation
// dynamics that make long horizons approach C ≈ J). Positions are not
// retained (retain_positions = false), so a 10^6-user instance fits the
// bench's memory budget; both legs share the identical instance.
//
// Each point runs up to three legs:
//   1. aggregated   — the streaming driver (run_aggregated_online_approx):
//                     collapsed P2 per slot, O(I·C_t) state, never a
//                     per-(cloud, user) array;
//   2. per-user     — Simulator::run with plain OnlineApprox, J-sized
//                     solves (skipped above ECA_SCALE_PER_USER_MAX, default
//                     10^5: the leg exists to measure speedup and the
//                     cost cross-check, not to wait on 10^6-user Newton);
//   3. parity       — Simulator::run with OnlineApprox{aggregate_users} at
//                     small J (≤ ECA_SCALE_PARITY_MAX, default 10^4),
//                     cross-checked against leg 1 at 1e-9 relative: the two
//                     paths perform bitwise-identical solves and differ
//                     only in cost summation order.
//
// P2 is strictly convex, so legs 1 and 2 share a unique optimum and the
// recorded cost_delta_rel is solver tolerance (~1e-7), not degeneracy slack.
// collapse_ratio is J divided by the mean per-slot class count — the factor
// by which the aggregated path shrinks the average solve.
//
// The long leg (ECA_SCALE_LONG_USERS × ECA_SCALE_LONG_SLOTS, default
// 10^6 × 60, 0 users disables) runs the streaming driver only and records
// wall time, class statistics and peak RSS; perf_guard.py gates its memory
// footprint and feasibility.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/online_approx.h"
#include "bench_common.h"
#include "sim/aggregated.h"
#include "sim/simulator.h"

namespace {

using namespace eca;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Process-lifetime peak resident set in MB (ru_maxrss is KB on Linux).
// Monotone across legs, so per-point values record the peak *so far* — the
// long leg runs last and owns the figure that matters.
double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double mean_classes(const std::vector<std::size_t>& classes_per_slot) {
  if (classes_per_slot.empty()) return 0.0;
  double sum = 0.0;
  for (const std::size_t c : classes_per_slot) sum += static_cast<double>(c);
  return sum / static_cast<double>(classes_per_slot.size());
}

model::Instance make_scale_instance(const bench::BenchScale& scale,
                                    std::size_t users, std::size_t slots) {
  sim::ScenarioOptions options = bench::scenario_from_scale(scale);
  options.num_users = users;
  options.num_slots = slots;
  options.seed = scale.seed + users;
  options.retain_positions = false;
  return sim::make_random_walk_instance(options);
}

struct ScalePoint {
  std::size_t users = 0;
  std::size_t slots = 0;
  double seconds_aggregated = 0.0;
  std::size_t classes_slot0 = 0;
  std::size_t classes_max = 0;
  double classes_mean = 0.0;
  double collapse_ratio = 0.0;  // users / classes_mean
  double cost_aggregated = 0.0;
  double max_violation = 0.0;
  bool has_per_user = false;
  double seconds_per_user = 0.0;
  double cost_per_user = 0.0;
  double speedup = 0.0;         // per-user / aggregated wall time
  double cost_delta_rel = 0.0;  // |aggregated - per-user| / (1 + |per-user|)
  bool parity_checked = false;
  bool streaming_parity = false;
  double peak_rss_mb = 0.0;
};

struct LongRun {
  bool enabled = false;
  std::size_t users = 0;
  std::size_t slots = 0;
  double seconds = 0.0;
  std::size_t classes_max = 0;
  double classes_mean = 0.0;
  double collapse_ratio = 0.0;
  double cost = 0.0;
  double max_violation = 0.0;
  double peak_rss_mb = 0.0;
};

struct ScalePerf {
  std::size_t clouds = 0;
  std::size_t sweep_slots = 0;
  std::size_t per_user_max = 0;
  std::size_t parity_max = 0;
  std::vector<ScalePoint> points;
  LongRun long_run;
};

ScalePoint run_point(const bench::BenchScale& scale, std::size_t users,
                     const ScalePerf& perf) {
  ScalePoint point;
  point.users = users;
  point.slots = perf.sweep_slots;
  const model::Instance instance =
      make_scale_instance(scale, users, perf.sweep_slots);

  algo::OnlineApproxOptions aggregated_options;
  aggregated_options.aggregate_users = true;
  const sim::AggregatedRunResult aggregated =
      sim::run_aggregated_online_approx(instance, aggregated_options);
  point.seconds_aggregated = aggregated.wall_seconds;
  point.cost_aggregated = aggregated.weighted_total;
  point.max_violation = aggregated.max_violation;
  point.classes_slot0 =
      aggregated.classes_per_slot.empty() ? 0
                                          : aggregated.classes_per_slot.front();
  point.classes_max = aggregated.max_classes;
  point.classes_mean = mean_classes(aggregated.classes_per_slot);
  point.collapse_ratio = point.classes_mean > 0.0
                             ? static_cast<double>(users) / point.classes_mean
                             : 0.0;

  point.has_per_user = users <= perf.per_user_max;
  if (point.has_per_user) {
    algo::OnlineApprox per_user_algorithm;  // aggregate_users = false
    const auto start = std::chrono::steady_clock::now();
    const sim::SimulationResult reference =
        sim::Simulator::run(instance, per_user_algorithm);
    point.seconds_per_user = seconds_since(start);
    point.cost_per_user = reference.weighted_total;
    point.speedup = point.seconds_aggregated > 0.0
                        ? point.seconds_per_user / point.seconds_aggregated
                        : 0.0;
    point.cost_delta_rel =
        std::fabs(aggregated.weighted_total - reference.weighted_total) /
        (1.0 + std::fabs(reference.weighted_total));
  }

  point.parity_checked = users <= perf.parity_max;
  if (point.parity_checked) {
    algo::OnlineApprox aggregated_algorithm(aggregated_options);
    const sim::SimulationResult materialized =
        sim::Simulator::run(instance, aggregated_algorithm);
    bool parity =
        std::fabs(materialized.weighted_total - aggregated.weighted_total) <=
        1e-9 * std::max(1.0, std::fabs(materialized.weighted_total));
    parity = parity &&
             materialized.per_slot.size() == aggregated.per_slot.size();
    for (std::size_t t = 0; parity && t < aggregated.per_slot.size(); ++t) {
      parity = std::fabs(materialized.per_slot[t] - aggregated.per_slot[t]) <=
               1e-9 * std::max(1.0, std::fabs(materialized.per_slot[t]));
    }
    point.streaming_parity = parity;
  }

  point.peak_rss_mb = peak_rss_mb();
  return point;
}

ScalePerf time_scale_sweep(const bench::BenchScale& scale) {
  ScalePerf perf;
  const auto min_users = static_cast<std::size_t>(
      env_int("ECA_SCALE_MIN_USERS", 1000, 1));
  const auto max_users = static_cast<std::size_t>(
      env_int("ECA_SCALE_MAX_USERS", 1000000, 1));
  perf.sweep_slots = static_cast<std::size_t>(env_int("ECA_SCALE_SLOTS", 6, 1));
  perf.per_user_max = static_cast<std::size_t>(
      env_int("ECA_SCALE_PER_USER_MAX", 100000, 0));
  perf.parity_max = static_cast<std::size_t>(
      env_int("ECA_SCALE_PARITY_MAX", 10000, 0));
  const auto long_users = static_cast<std::size_t>(
      env_int("ECA_SCALE_LONG_USERS", 1000000, 0));
  const auto long_slots = static_cast<std::size_t>(
      env_int("ECA_SCALE_LONG_SLOTS", 60, 1));

  for (std::size_t users = min_users; users <= max_users; users *= 10) {
    if (perf.clouds == 0) {
      perf.clouds = make_scale_instance(scale, 1, 1).num_clouds;
    }
    const ScalePoint point = run_point(scale, users, perf);
    perf.points.push_back(point);
    std::printf(
        "scale J=%8zu T=%zu: aggregated %.3fs (classes %zu..%zu, mean %.0f, "
        "collapse %.1fx)",
        point.users, point.slots, point.seconds_aggregated,
        point.classes_slot0, point.classes_max, point.classes_mean,
        point.collapse_ratio);
    if (point.has_per_user) {
      std::printf(", per-user %.3fs (%.2fx, cost delta %.2e)",
                  point.seconds_per_user, point.speedup, point.cost_delta_rel);
    }
    if (point.parity_checked) {
      std::printf(", parity=%s", point.streaming_parity ? "true" : "false");
    }
    std::printf(", viol %.2e, rss %.0f MB\n", point.max_violation,
                point.peak_rss_mb);
  }

  if (long_users > 0) {
    LongRun& run = perf.long_run;
    run.enabled = true;
    run.users = long_users;
    run.slots = long_slots;
    std::printf("long leg J=%zu T=%zu: building instance...\n", long_users,
                long_slots);
    const model::Instance instance =
        make_scale_instance(scale, long_users, long_slots);
    algo::OnlineApproxOptions options;
    options.aggregate_users = true;
    const sim::AggregatedRunResult result =
        sim::run_aggregated_online_approx(instance, options);
    run.seconds = result.wall_seconds;
    run.classes_max = result.max_classes;
    run.classes_mean = mean_classes(result.classes_per_slot);
    run.collapse_ratio = run.classes_mean > 0.0
                             ? static_cast<double>(long_users) / run.classes_mean
                             : 0.0;
    run.cost = result.weighted_total;
    run.max_violation = result.max_violation;
    run.peak_rss_mb = peak_rss_mb();
    std::printf(
        "long leg J=%zu T=%zu: %.1fs, classes max %zu mean %.0f "
        "(collapse %.1fx), viol %.2e, peak rss %.0f MB\n",
        run.users, run.slots, run.seconds, run.classes_max, run.classes_mean,
        run.collapse_ratio, run.max_violation, run.peak_rss_mb);
  }
  return perf;
}

void emit_json(const bench::BenchScale& scale, const ScalePerf& perf,
               const bench::EventsOverhead& events) {
  const std::string path =
      env_string("ECA_BENCH_SCALE_JSON", "BENCH_scale.json");
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"eca.bench_scale.v1\",\n");
  bench::write_meta_json(out);
  bench::write_events_overhead_json(out, events);
  std::fprintf(out, "  \"clouds\": %zu,\n", perf.clouds);
  std::fprintf(out,
               "  \"sweep\": {\"slots\": %zu, \"per_user_max\": %zu, "
               "\"parity_max\": %zu, \"seed\": %llu},\n",
               perf.sweep_slots, perf.per_user_max, perf.parity_max,
               static_cast<unsigned long long>(scale.seed));
  std::fprintf(out, "  \"points\": [\n");
  for (std::size_t i = 0; i < perf.points.size(); ++i) {
    const ScalePoint& p = perf.points[i];
    std::fprintf(
        out,
        "    {\"users\": %zu, \"slots\": %zu, "
        "\"seconds_aggregated\": %.4f, \"classes_slot0\": %zu, "
        "\"classes_max\": %zu, \"classes_mean\": %.1f, "
        "\"collapse_ratio\": %.2f, \"cost_aggregated\": %.6f, "
        "\"max_violation\": %.3e, \"has_per_user\": %s, "
        "\"seconds_per_user\": %.4f, \"cost_per_user\": %.6f, "
        "\"speedup\": %.3f, \"cost_delta_rel\": %.3e, "
        "\"parity_checked\": %s, \"streaming_parity\": %s, "
        "\"peak_rss_mb\": %.1f}%s\n",
        p.users, p.slots, p.seconds_aggregated, p.classes_slot0,
        p.classes_max, p.classes_mean, p.collapse_ratio, p.cost_aggregated,
        p.max_violation, p.has_per_user ? "true" : "false",
        p.seconds_per_user, p.cost_per_user, p.speedup, p.cost_delta_rel,
        p.parity_checked ? "true" : "false",
        p.streaming_parity ? "true" : "false", p.peak_rss_mb,
        i + 1 < perf.points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  if (perf.long_run.enabled) {
    const LongRun& r = perf.long_run;
    std::fprintf(out,
                 "  \"long_run\": {\"users\": %zu, \"slots\": %zu, "
                 "\"seconds\": %.2f, \"classes_max\": %zu, "
                 "\"classes_mean\": %.1f, \"collapse_ratio\": %.2f, "
                 "\"cost\": %.6f, \"max_violation\": %.3e, "
                 "\"peak_rss_mb\": %.1f}\n",
                 r.users, r.slots, r.seconds, r.classes_max, r.classes_mean,
                 r.collapse_ratio, r.cost, r.max_violation, r.peak_rss_mb);
  } else {
    std::fprintf(out, "  \"long_run\": null\n");
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  const eca::bench::BenchScale scale = eca::bench::read_scale();
  eca::bench::print_header(
      "scale", "user-class aggregation: per-user vs class-space sweep", scale);
  const ScalePerf perf = time_scale_sweep(scale);
  const eca::bench::EventsOverhead events =
      eca::bench::measure_default_events_overhead(scale);
  emit_json(scale, perf, events);
  return 0;
}
