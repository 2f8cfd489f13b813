// CLI: run any algorithm of the roster on a serialized problem instance.
//
//   $ ./examples/run_instance <instance-file> [algorithm]
//   $ ./examples/run_instance --demo            # writes demo.instance first
//
// Algorithms: online-approx (default), online-greedy, lazy-greedy,
// stat-opt, perf-opt, oper-opt, static-once, lookahead-<k>, offline.
//
// Together with the eca-instance text format (src/io/serialize.h) this lets
// real traces — e.g. the actual CRAWDAD Roma taxi dataset the paper used —
// be fed through every algorithm in the library without writing C++.
//
// Observability: set ECA_EVENTS=<path> to record the finished run in the
// eca.events.v4 JSONL stream (per-slot cost split + solver convergence;
// render it with scripts/report_run.py) and ECA_TRACE=<path> for a
// Chrome-trace span file that ends with the metrics counters' run totals.
// See README.md §Observability.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "algo/baselines.h"
#include "algo/extensions.h"
#include "algo/offline.h"
#include "algo/online_approx.h"
#include "common/env.h"
#include "io/serialize.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace {

using namespace eca;

std::unique_ptr<algo::OnlineAlgorithm> make_algorithm(const std::string& name) {
  if (name == "online-approx") return std::make_unique<algo::OnlineApprox>();
  if (name == "online-greedy") return std::make_unique<algo::OnlineGreedy>();
  if (name == "lazy-greedy") return std::make_unique<algo::LazyGreedy>();
  if (name == "stat-opt") return std::make_unique<algo::StatOpt>();
  if (name == "perf-opt") return std::make_unique<algo::PerfOpt>();
  if (name == "oper-opt") return std::make_unique<algo::OperOpt>();
  if (name == "static-once") return std::make_unique<algo::StaticOnce>();
  if (name.rfind("lookahead-", 0) == 0) {
    algo::LookaheadOptions options;
    options.window = static_cast<std::size_t>(
        parse_int("lookahead window", name.c_str() + 10, 1));
    return std::make_unique<algo::LookaheadOpt>(options);
  }
  return nullptr;
}

int run(const std::string& path, const std::string& algorithm_name) {
  // The name is checked before the instance loads: a typo fails fast.
  std::unique_ptr<algo::OnlineAlgorithm> algorithm;
  if (algorithm_name != "offline") {
    algorithm = make_algorithm(algorithm_name);
    if (algorithm == nullptr) {
      std::fprintf(stderr, "unknown algorithm '%s'\n",
                   algorithm_name.c_str());
      return 1;
    }
  }
  std::string error;
  const auto instance = io::load_instance(path, &error);
  if (!instance) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("instance: %zu clouds, %zu users, %zu slots (mu = %.3g)\n",
              instance->num_clouds, instance->num_users, instance->num_slots,
              instance->weights.mu());

  if (algorithm_name == "offline") {
    const algo::OfflineResult offline = algo::solve_offline(*instance);
    if (offline.status != solve::SolveStatus::kOptimal) {
      std::fprintf(stderr, "offline solve failed: %s\n",
                   solve::to_string(offline.status));
      return 1;
    }
    const auto scored =
        sim::Simulator::score(*instance, "offline-opt", offline.allocations);
    obs::emit_run(obs::global_events(), scored.telemetry);
    std::printf("offline-opt cost: %.4f\n", scored.weighted_total);
    return 0;
  }

  const sim::SimulationResult result =
      sim::Simulator::run(*instance, *algorithm);
  obs::EventLog* const events = obs::global_events();
  obs::emit_run(events, result.telemetry);
  std::printf("%s cost: %.4f\n", result.algorithm.c_str(),
              result.weighted_total);
  std::printf("  operation %.4f, service quality %.4f\n",
              result.cost.operation, result.cost.service_quality);
  std::printf("  reconfiguration %.4f, migration %.4f\n",
              result.cost.reconfiguration, result.cost.migration);
  std::printf("  max constraint violation %.2e, wall %.2fs\n",
              result.max_violation, result.wall_seconds);
  obs::TraceSession* const trace = obs::global_trace();
  std::printf("  obs: threads_seen=%zu trace_dropped=%zu "
              "events_recorded=%zu events_dropped=%zu\n",
              obs::threads_seen(),
              trace != nullptr ? trace->dropped() : std::size_t{0},
              events != nullptr ? events->recorded() : std::size_t{0},
              events != nullptr ? events->dropped() : std::size_t{0});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--demo") == 0) {
    sim::ScenarioOptions options;
    options.num_users = 10;
    options.num_slots = 12;
    options.seed = 4;
    const model::Instance instance = sim::make_rome_taxi_instance(options, 0);
    const std::string path = "demo.instance";
    if (!io::save_instance(path, instance)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s; running online-approx on it:\n", path.c_str());
    return run(path, argc >= 3 ? argv[2] : "online-approx");
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <instance-file> [algorithm]\n"
                 "       %s --demo [algorithm]\n",
                 argv[0], argv[0]);
    return 2;
  }
  return run(argv[1], argc >= 3 ? argv[2] : "online-approx");
}
