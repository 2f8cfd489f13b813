// Experiment runner: repeats a scenario over seeds, runs a set of online
// algorithms plus the offline optimum, and aggregates empirical
// competitive ratios (mean and standard deviation) — the measurement
// protocol behind every figure in the paper's evaluation.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algo/algorithm.h"
#include "algo/offline.h"
#include "common/stats.h"
#include "sim/simulator.h"

namespace eca::sim {

// Factory so each repetition gets a fresh algorithm (algorithms may carry
// per-run state such as StaticOnce's fixed allocation).
using AlgorithmFactory = std::function<algo::AlgorithmPtr()>;

struct NamedFactory {
  std::string name;
  AlgorithmFactory make;
};

// The standard algorithm roster of the paper's figures.
std::vector<NamedFactory> paper_algorithms(bool include_static_once = false);

struct ExperimentOptions {
  // Names the experiment in the event stream's experiment_begin record
  // (a figure's hour, distribution, mu or user count); scripts/report_run.py
  // renders one figure-table row per experiment under it. Up to 39 bytes.
  std::string label;
  int repetitions = 3;
  std::uint64_t base_seed = 1;
  algo::OfflineOptions offline;
  // Worker threads for the (repetition × algorithm) fan-out. 0 = resolve
  // from the ECA_THREADS environment variable (default: hardware
  // concurrency); 1 = every task inline on the calling thread. Results are
  // merged in repetition-major order from index-addressed buffers, so every
  // thread count produces bit-identical statistics and event streams.
  int threads = 0;
};

struct AlgorithmSummary {
  std::string name;
  RunningStats ratio;          // cost / offline-opt cost
  RunningStats absolute_cost;  // weighted P0 cost
  RunningStats wall_seconds;
  double worst_violation = 0.0;
};

struct ExperimentResult {
  std::vector<AlgorithmSummary> algorithms;
  RunningStats offline_cost;

  [[nodiscard]] const AlgorithmSummary* find(const std::string& name) const;
};

// Runs all algorithms on instances produced by `make_instance(rep)`;
// each repetition builds a fresh instance (the callback should vary the
// seed with `rep`). With options.threads != 1 repetitions and algorithm
// runs execute concurrently, so `make_instance` must be safe to call
// concurrently for distinct reps (pure seeded generation qualifies).
// With ECA_EVENTS set, the finished runs are recorded in the event stream
// from the deterministic merge: experiment_begin with options.label, then
// per repetition rep_begin, the offline-opt run, each algorithm's run and
// result under its roster name, rep_end (see obs/events.h).
ExperimentResult run_experiment(
    const std::function<model::Instance(int rep)>& make_instance,
    const std::vector<NamedFactory>& algorithms,
    const ExperimentOptions& options);

}  // namespace eca::sim
