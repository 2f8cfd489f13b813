// Bit-identity of the simulator's baseline slot fan-out: for every
// slot-separable algorithm the parallel path (per-worker clones, round-robin
// slot assignment, index-addressed merge) must reproduce the serial
// trajectory bit for bit at every worker count — including worker counts
// beyond the core count (oversubscribed, so the interleaving is stressed on
// any machine). Labelled tsan-smoke: a -DECA_SANITIZE=thread build races
// the per-worker clones under TSan through exactly this test.
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/baselines.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace eca::sim {
namespace {

using algo::AlgorithmPtr;

model::Instance test_instance(std::uint64_t seed, std::size_t num_slots) {
  ScenarioOptions options;
  options.num_users = 6;
  options.num_slots = num_slots;
  options.seed = seed;
  return make_random_walk_instance(options);
}

std::vector<std::pair<std::string, std::function<AlgorithmPtr()>>>
separable_roster() {
  return {
      {"perf-opt", [] { return std::make_unique<algo::PerfOpt>(); }},
      {"oper-opt", [] { return std::make_unique<algo::OperOpt>(); }},
      {"stat-opt", [] { return std::make_unique<algo::StatOpt>(); }},
  };
}

void expect_run_bitwise_equal(const SimulationResult& a,
                              const SimulationResult& b) {
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (std::size_t t = 0; t < a.allocations.size(); ++t) {
    EXPECT_EQ(a.allocations[t].x, b.allocations[t].x) << "slot " << t;
  }
  EXPECT_EQ(a.weighted_total, b.weighted_total);
  EXPECT_EQ(a.per_slot, b.per_slot);
  EXPECT_EQ(a.max_violation, b.max_violation);
}

TEST(BaselineParallel, SeparableBaselinesAreBitIdenticalAcrossThreadCounts) {
  // 13 slots: no worker count below divides it, so every round-robin
  // assignment leaves some workers one slot more than others.
  const model::Instance instance = test_instance(7, 13);
  for (const auto& [name, make] : separable_roster()) {
    SimulatorOptions serial;
    serial.baseline_threads = 1;
    auto reference_algorithm = make();
    const SimulationResult reference =
        Simulator::run(instance, *reference_algorithm, serial);
    for (int threads : {2, 3, 5, 8}) {
      SimulatorOptions options;
      options.baseline_threads = threads;
      options.min_slot_work = 1;   // lift the work floor: tiny test instance
      options.oversubscribe = true;  // and the hardware cap (1-core CI)
      auto algorithm = make();
      const SimulationResult parallel =
          Simulator::run(instance, *algorithm, options);
      SCOPED_TRACE(name + " with " + std::to_string(threads) + " threads");
      expect_run_bitwise_equal(reference, parallel);
    }
  }
}

TEST(BaselineParallel, SlotCountBelowWorkerCountStaysBitIdentical) {
  // Fewer slots than requested workers: the fan-out shrinks to one worker
  // per slot and must still match serial.
  const model::Instance instance = test_instance(11, 3);
  for (const auto& [name, make] : separable_roster()) {
    auto a = make();
    auto b = make();
    SimulatorOptions options;
    options.baseline_threads = 4;
    options.min_slot_work = 1;
    options.oversubscribe = true;
    SCOPED_TRACE(name);
    expect_run_bitwise_equal(Simulator::run(instance, *a),
                             Simulator::run(instance, *b, options));
  }
}

TEST(BaselineParallel, SequentialAlgorithmIgnoresThreadRequest) {
  // online-greedy chains through the previous slot, and static-once's slots
  // only copy one fixed allocation, so both take the serial loop regardless
  // of the requested worker count — and produce exactly the serial
  // trajectory.
  const model::Instance instance = test_instance(5, 9);
  const std::vector<std::pair<std::string, std::function<AlgorithmPtr()>>>
      sequential = {
          {"online-greedy",
           [] { return std::make_unique<algo::OnlineGreedy>(); }},
          {"static-once", [] { return std::make_unique<algo::StaticOnce>(); }},
      };
  SimulatorOptions serial;
  serial.baseline_threads = 1;
  SimulatorOptions options;
  options.baseline_threads = 4;
  options.min_slot_work = 1;
  options.oversubscribe = true;
  for (const auto& [name, make] : sequential) {
    auto a = make();
    auto b = make();
    EXPECT_FALSE(b->slot_separable()) << name;
    SCOPED_TRACE(name);
    expect_run_bitwise_equal(Simulator::run(instance, *a, serial),
                             Simulator::run(instance, *b, options));
  }
}

TEST(BaselineParallel, WorkFloorKeepsTinyInstancesSerial) {
  // Default options on a tiny instance: the work-volume floor resolves to
  // one worker, which must be the exact serial path.
  const model::Instance instance = test_instance(3, 6);
  algo::StatOpt a;
  algo::StatOpt b;
  SimulatorOptions options;
  options.baseline_threads = 8;  // request is capped by the work floor
  options.oversubscribe = true;
  expect_run_bitwise_equal(Simulator::run(instance, a),
                           Simulator::run(instance, b, options));
}

}  // namespace
}  // namespace eca::sim
