#include "sim/runner.h"

#include <utility>

#include "algo/baselines.h"
#include "algo/online_approx.h"
#include "common/check.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eca::sim {

std::vector<NamedFactory> paper_algorithms(bool include_static_once) {
  std::vector<NamedFactory> out = {
      {"perf-opt", [] { return std::make_unique<algo::PerfOpt>(); }},
      {"oper-opt", [] { return std::make_unique<algo::OperOpt>(); }},
      {"stat-opt", [] { return std::make_unique<algo::StatOpt>(); }},
      {"online-greedy", [] { return std::make_unique<algo::OnlineGreedy>(); }},
      {"online-approx", [] { return std::make_unique<algo::OnlineApprox>(); }},
  };
  if (include_static_once) {
    out.insert(out.begin(),
               {"static-once", [] { return std::make_unique<algo::StaticOnce>(); }});
  }
  return out;
}

const AlgorithmSummary* ExperimentResult::find(const std::string& name) const {
  for (const auto& summary : algorithms) {
    if (summary.name == name) return &summary;
  }
  return nullptr;
}

namespace {

// Per-repetition state: the instance, shared by the rep's concurrent
// offline and algorithm tasks, and the offline task's results for the
// merge.
struct RepState {
  model::Instance instance;
  double denominator = 0.0;
  // The offline-opt run, recorded ahead of the algorithms' runs as the
  // reference their ratio and regret attribution is derived against.
  obs::RunTelemetry offline_telemetry;
};

// Accumulates one (rep, algorithm) simulation into the summary. The merge
// calls it in rep-major, roster order, so every thread count produces
// bit-identical statistics.
void accumulate(const SimulationResult& sim, double denominator,
                AlgorithmSummary& summary) {
  summary.ratio.add(sim.weighted_total / denominator);
  summary.absolute_cost.add(sim.weighted_total);
  summary.wall_seconds.add(sim.wall_seconds);
  summary.worst_violation = std::max(summary.worst_violation, sim.max_violation);
  // Runs on the merging thread, so the counter total is exact and the
  // accumulated seconds are single-writer.
  static obs::Counter& sims =
      obs::MetricsRegistry::global().counter("runner.simulations");
  static obs::DoubleCounter& sim_seconds =
      obs::MetricsRegistry::global().double_counter("runner.sim_seconds");
  sims.add();
  sim_seconds.add(sim.wall_seconds);
}

}  // namespace

ExperimentResult run_experiment(
    const std::function<model::Instance(int rep)>& make_instance,
    const std::vector<NamedFactory>& algorithms,
    const ExperimentOptions& options) {
  ECA_TRACE_SPAN("experiment");
  const auto reps = static_cast<std::size_t>(
      options.repetitions > 0 ? options.repetitions : 0);
  const std::size_t num_algos = algorithms.size();
  // parallel_for runs inline at one thread, so threads == 1 is the serial
  // order of the same tasks.
  const std::size_t threads = ThreadPool::resolve_threads(options.threads);

  // The instances first, parallel over reps.
  std::vector<RepState> rep_states(reps);
  ThreadPool::parallel_for(reps, threads, [&](std::size_t rep) {
    rep_states[rep].instance = make_instance(static_cast<int>(rep));
  });

  // Then one task list: the reps' offline optima (the longest tasks) first,
  // then one task per (rep × algorithm) pair with a fresh algorithm object.
  // Neither kind reads the other's result, so no worker waits at a barrier
  // between them; results land in index-addressed buffers.
  std::vector<SimulationResult> sims(reps * num_algos);
  ThreadPool::parallel_for(reps + reps * num_algos, threads,
                           [&](std::size_t task) {
    if (task < reps) {
      RepState& state = rep_states[task];
      const algo::OfflineResult offline =
          algo::solve_offline(state.instance, options.offline);
      ECA_CHECK(offline.status == solve::SolveStatus::kOptimal,
                "offline LP failed: ", solve::to_string(offline.status));
      SimulationResult offline_scored =
          Simulator::score(state.instance, "offline-opt", offline.allocations);
      state.denominator = offline_scored.weighted_total;
      ECA_CHECK(state.denominator > 0.0, "offline optimum must be positive");
      state.offline_telemetry = std::move(offline_scored.telemetry);
      return;
    }
    const std::size_t rep = (task - reps) / num_algos;
    const std::size_t a = (task - reps) % num_algos;
    algo::AlgorithmPtr algorithm = algorithms[a].make();
    SimulationResult& sim = sims[task - reps];
    sim = Simulator::run(rep_states[rep].instance, *algorithm);
    // The roster name labels the run in the record, so variants of one
    // algorithm (Fig 4(a)'s epsilons, the ablation) stay apart.
    sim.algorithm = algorithms[a].name;
    sim.telemetry.algorithm = algorithms[a].name;
  });

  // Deterministic merge in rep-major, roster order on the calling thread.
  // The statistics and the event stream are recorded only here, so both
  // are bit-identical for every thread count.
  obs::EventLog* const events = obs::global_events();
  obs::emit_experiment_begin(events, options.label, options.repetitions,
                             num_algos);
  ExperimentResult result;
  result.algorithms.resize(num_algos);
  for (std::size_t a = 0; a < num_algos; ++a) {
    result.algorithms[a].name = algorithms[a].name;
  }
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double denominator = rep_states[rep].denominator;
    result.offline_cost.add(denominator);
    obs::emit_rep_begin(events, rep, denominator);
    // The offline-opt run first: the reference the report's ratio and
    // regret attribution is derived against.
    obs::emit_run(events, rep_states[rep].offline_telemetry);
    if (log::enabled(log::Level::kInfo)) {
      log::emit(log::Level::kInfo, "rep %zu: offline-opt cost %.4f", rep,
                denominator);
    }
    for (std::size_t a = 0; a < num_algos; ++a) {
      const SimulationResult& sim = sims[rep * num_algos + a];
      accumulate(sim, denominator, result.algorithms[a]);
      obs::emit_run(events, sim.telemetry);
      obs::emit_result(events, sim.algorithm, rep, sim.weighted_total,
                       sim.weighted_total / denominator);
      if (log::enabled(log::Level::kInfo)) {
        log::emit(log::Level::kInfo,
                  "rep %zu: %-14s cost %.4f ratio %.4f (%.2fs)", rep,
                  sim.algorithm.c_str(), sim.weighted_total,
                  sim.weighted_total / denominator, sim.wall_seconds);
      }
    }
    obs::emit_rep_end(events, rep);
  }
  obs::emit_experiment_end(events, reps * num_algos);
  // Final observability summary: the shard high-water mark and the drop
  // counters that previously vanished silently at process exit. threads_seen
  // depends on resolved worker counts, so it belongs here (a log line) and
  // never in the deterministic artifacts.
  if (log::enabled(log::Level::kInfo)) {
    obs::TraceSession* const trace = obs::global_trace();
    log::emit(log::Level::kInfo,
              "obs: threads_seen=%zu metric_shards=%zu trace_dropped=%zu "
              "events_recorded=%zu events_dropped=%zu",
              obs::threads_seen(), obs::kMetricShards,
              trace != nullptr ? trace->dropped() : std::size_t{0},
              events != nullptr ? events->recorded() : std::size_t{0},
              events != nullptr ? events->dropped() : std::size_t{0});
  }
  return result;
}

}  // namespace eca::sim
