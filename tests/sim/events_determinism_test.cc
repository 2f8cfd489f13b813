// Bit-identity of the observability artifacts across worker counts: the
// serialized eca.events.v2 stream and the eca.telemetry.v4 JSON produced by
// a simulator run must be byte-for-byte identical for every
// baseline_threads value — including counts beyond the core count
// (oversubscribed, so the interleaving is stressed on any machine). The
// event payloads carry only deterministic values (slot indices, cost
// splits, policy inputs — never resolved worker counts or wall clocks), and
// slot events are serialized post-merge by the driving thread, so the
// stream cannot depend on how the fan-out raced. Labelled tsan-smoke: a
// -DECA_SANITIZE=thread build races the per-worker clones against the
// event buffer under TSan through exactly this test.
#include <cstddef>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/baselines.h"
#include "algo/online_approx.h"
#include "io/serialize.h"
#include "obs/events.h"
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

struct CapturedRun {
  std::string events;     // flushed eca.events.v2 JSONL
  std::string telemetry;  // serialized eca.telemetry.v4 JSON
};

// Runs the simulator against a fresh buffer-only global event log and
// returns both serialized artifacts. The wall-clock telemetry fields
// (run wall_seconds, per-solve solve/assembly/factor seconds) are zeroed
// before serializing: they are the only legitimately nondeterministic
// fields, and the event stream deliberately omits them.
CapturedRun capture(const model::Instance& instance,
                    algo::OnlineAlgorithm& algorithm,
                    const SimulatorOptions& options) {
  obs::EventLogOptions log_options;
  log_options.path = "";
  log_options.capacity = 1 << 12;
  obs::EventLog* log = obs::install_global_events(std::move(log_options));
  SimulationResult result = Simulator::run(instance, algorithm, options);
  CapturedRun captured;
  std::ostringstream events;
  log->flush_to(events);
  captured.events = events.str();
  result.telemetry.wall_seconds = 0.0;
  for (obs::SlotTelemetry& slot : result.telemetry.slots) {
    slot.solve.solve_seconds = 0.0;
    slot.solve.assembly_seconds = 0.0;
    slot.solve.factor_seconds = 0.0;
  }
  std::ostringstream telemetry;
  io::write_telemetry(telemetry, result.telemetry);
  captured.telemetry = telemetry.str();
  obs::drop_global_events();
  return captured;
}

// Thread-count variation must hold every policy input fixed (the workers
// event records work volume, floor and eligibility — all deterministic
// inputs, but inputs nonetheless), so both legs lift the floor and the
// hardware cap and differ only in the requested worker count.
SimulatorOptions with_threads(int threads) {
  SimulatorOptions options;
  options.baseline_threads = threads;
  options.min_slot_work = 1;   // lift the work floor: tiny test instance
  options.oversubscribe = true;  // and the hardware cap (1-core CI)
  return options;
}

std::vector<std::pair<std::string, std::function<AlgorithmPtr()>>>
separable_roster() {
  return {
      {"perf-opt", [] { return std::make_unique<algo::PerfOpt>(); }},
      {"oper-opt", [] { return std::make_unique<algo::OperOpt>(); }},
      {"stat-opt", [] { return std::make_unique<algo::StatOpt>(); }},
      {"static-once", [] { return std::make_unique<algo::StaticOnce>(); }},
  };
}

TEST(EventsDeterminism, StreamIsByteIdenticalAcrossBaselineThreadCounts) {
  // 13 slots: partial head block, full blocks, partial tail block — every
  // block-boundary case of the fan-out's static assignment.
  const model::Instance instance = test_instance(7, 13);
  for (const auto& [name, make] : separable_roster()) {
    auto reference_algorithm = make();
    const CapturedRun reference =
        capture(instance, *reference_algorithm, with_threads(1));
    for (int threads : {2, 5, 8}) {
      auto algorithm = make();
      const CapturedRun parallel =
          capture(instance, *algorithm, with_threads(threads));
      SCOPED_TRACE(name + " with " + std::to_string(threads) + " threads");
      EXPECT_EQ(reference.events, parallel.events);
      EXPECT_EQ(reference.telemetry, parallel.telemetry);
    }
  }
}

TEST(EventsDeterminism, SolveEventsAreByteIdenticalForOnlineApprox) {
  // OnlineApprox is the only decide-path emitter; it never takes the slot
  // fan-out, but its stream (run/workers/solve/slot/run_end) must still be
  // identical whatever worker count the options request.
  const model::Instance instance = test_instance(11, 6);
  algo::OnlineApprox reference_algorithm;
  const CapturedRun reference =
      capture(instance, reference_algorithm, with_threads(1));
  EXPECT_NE(reference.events.find("\"kind\":\"solve\""), std::string::npos);
  algo::OnlineApprox algorithm;
  const CapturedRun parallel = capture(instance, algorithm, with_threads(4));
  EXPECT_EQ(reference.events, parallel.events);
  EXPECT_EQ(reference.telemetry, parallel.telemetry);
}

TEST(EventsDeterminism, StreamShapeMatchesRunLifecycle) {
  const model::Instance instance = test_instance(3, 4);
  algo::StatOpt algorithm;
  const CapturedRun captured = capture(instance, algorithm, with_threads(2));
  // One run_begin, one workers record, four slot records in ascending
  // order, one run_end; baselines expose no solver telemetry.
  EXPECT_NE(captured.events.find("\"kind\":\"run_begin\""),
            std::string::npos);
  EXPECT_NE(captured.events.find("\"scope\":\"baseline_slots\""),
            std::string::npos);
  std::size_t slot_events = 0;
  std::size_t last = std::string::npos;
  for (std::size_t at = captured.events.find("\"kind\":\"slot\",\"slot\":");
       at != std::string::npos;
       at = captured.events.find("\"kind\":\"slot\",\"slot\":", at + 1)) {
    ++slot_events;
    last = at;
  }
  EXPECT_EQ(slot_events, 4u);
  EXPECT_NE(last, std::string::npos);
  EXPECT_EQ(captured.events.find("\"kind\":\"solve\""), std::string::npos);
  EXPECT_NE(captured.events.find("\"kind\":\"run_end\""), std::string::npos);
}

}  // namespace
}  // namespace eca::sim
