// Byte-identity of the eca.events.v4 stream across worker counts. A
// simulator run recorded with obs::emit_run must serialize identically for
// every baseline_threads value — including counts beyond the core count
// (oversubscribed, so the interleaving is stressed on any machine) — and a
// run_experiment stream must serialize identically for every runner thread
// count. Event payloads carry only deterministic values (slot indices, cost
// splits, solver convergence stats — never resolved worker counts or wall
// clocks), and every record is made after the runs finish, by one thread,
// in a fixed order. Labelled tsan-smoke: a -DECA_SANITIZE=thread build
// races the per-worker clones and the runner's fan-out under TSan through
// exactly this test.
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/baselines.h"
#include "algo/online_approx.h"
#include "obs/events.h"
#include "sim/runner.h"
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

obs::EventLog* install_buffer_log() {
  obs::EventLogOptions log_options;
  log_options.path = "";
  log_options.capacity = 1 << 12;
  return obs::install_global_events(std::move(log_options));
}

std::string flush_and_drop(obs::EventLog* log) {
  std::ostringstream events;
  log->flush_to(events);
  obs::drop_global_events();
  return events.str();
}

// Runs the simulator and records the finished run against a fresh
// buffer-only global event log; returns the flushed stream.
std::string capture(const model::Instance& instance,
                    algo::OnlineAlgorithm& algorithm,
                    const SimulatorOptions& options) {
  obs::EventLog* log = install_buffer_log();
  const SimulationResult result = Simulator::run(instance, algorithm, options);
  obs::emit_run(log, result.telemetry);
  return flush_and_drop(log);
}

// Both legs lift the work floor and the hardware cap so the fan-out engages
// on the tiny instance; they differ only in the requested worker count.
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
    const std::string reference =
        capture(instance, *reference_algorithm, with_threads(1));
    for (int threads : {2, 5, 8}) {
      auto algorithm = make();
      const std::string parallel =
          capture(instance, *algorithm, with_threads(threads));
      SCOPED_TRACE(name + " with " + std::to_string(threads) + " threads");
      EXPECT_EQ(reference, parallel);
    }
  }
}

TEST(EventsDeterminism, SolveEventsAreByteIdenticalForOnlineApprox) {
  // OnlineApprox is the algorithm with solver stats; it never takes the
  // slot fan-out, but its stream (run_begin/slot/solve/run_end) must still
  // be identical whatever worker count the options request.
  const model::Instance instance = test_instance(11, 6);
  algo::OnlineApprox reference_algorithm;
  const std::string reference =
      capture(instance, reference_algorithm, with_threads(1));
  EXPECT_NE(reference.find("\"kind\":\"solve\""), std::string::npos);
  EXPECT_NE(reference.find("\"kkt_dual_residual\":"), std::string::npos);
  algo::OnlineApprox algorithm;
  const std::string parallel = capture(instance, algorithm, with_threads(4));
  EXPECT_EQ(reference, parallel);
}

TEST(EventsDeterminism, StreamShapeMatchesRunLifecycle) {
  const model::Instance instance = test_instance(3, 4);
  algo::StatOpt algorithm;
  const std::string events = capture(instance, algorithm, with_threads(2));
  // One run_begin, four slot records in ascending order, one run_end;
  // baselines expose no solver telemetry.
  std::size_t slot_events = 0;
  std::size_t previous = 0;
  for (std::size_t at = events.find("\"kind\":\"slot\",\"slot\":");
       at != std::string::npos;
       at = events.find("\"kind\":\"slot\",\"slot\":", at + 1)) {
    EXPECT_NE(events.find("\"slot\":" + std::to_string(slot_events) + ",",
                          at),
              std::string::npos);
    EXPECT_GT(at, previous);
    previous = at;
    ++slot_events;
  }
  EXPECT_EQ(slot_events, 4u);
  EXPECT_LT(events.find("\"kind\":\"run_begin\""),
            events.find("\"kind\":\"slot\""));
  EXPECT_GT(events.find("\"kind\":\"run_end\""), previous);
  EXPECT_EQ(events.find("\"kind\":\"solve\""), std::string::npos);
}

TEST(EventsDeterminism, RunnerStreamIsByteIdenticalAcrossRunnerThreads) {
  // The full roster plus offline-opt over two repetitions of a labelled
  // experiment: the runner's merge records every finished run, so the
  // stream must not depend on how the (rep x algorithm) fan-out raced,
  // whether the worker count is explicit or read from ECA_THREADS.
  const auto make = [](int rep) {
    return test_instance(21 + static_cast<std::uint64_t>(rep), 4);
  };
  const std::vector<NamedFactory> roster =
      paper_algorithms(/*include_static_once=*/true);
  const auto stream = [&](int threads) {
    obs::EventLog* log = install_buffer_log();
    ExperimentOptions options;
    options.label = "3pm";
    options.repetitions = 2;
    options.threads = threads;
    (void)run_experiment(make, roster, options);
    return flush_and_drop(log);
  };
  const std::string reference = stream(1);
  EXPECT_NE(reference.find("\"dropped\":0}"), std::string::npos);
  EXPECT_NE(reference.find("{\"seq\":0,\"kind\":\"experiment_begin\","
                           "\"label\":\"3pm\",\"repetitions\":2,"
                           "\"algorithms\":6}"),
            std::string::npos);
  // Per rep: the offline-opt reference run, then every algorithm's run and
  // result.
  EXPECT_NE(reference.find("\"kind\":\"run_begin\","
                           "\"algorithm\":\"offline-opt\""),
            std::string::npos);
  std::size_t results = 0;
  for (std::size_t at = reference.find("\"kind\":\"result\"");
       at != std::string::npos;
       at = reference.find("\"kind\":\"result\"", at + 1)) {
    ++results;
  }
  EXPECT_EQ(results, 2 * roster.size());
  for (int threads : {2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " runner threads");
    EXPECT_EQ(reference, stream(threads));
  }
  const char* saved = std::getenv("ECA_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  ::setenv("ECA_THREADS", "3", 1);
  const std::string from_env = stream(0);
  if (saved != nullptr) {
    ::setenv("ECA_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("ECA_THREADS");
  }
  EXPECT_EQ(reference, from_env) << "ECA_THREADS=3";
}

TEST(EventsDeterminism, RunsAreRecordedUnderTheirRosterNames) {
  // Two variants of one algorithm class stay apart in the record: the
  // run and result records carry the roster name, not the class's name.
  const std::vector<NamedFactory> roster = {
      {"eps=1", [] { return std::make_unique<algo::OnlineApprox>(); }},
      {"eps=10", [] {
         algo::OnlineApproxOptions options;
         options.eps1 = options.eps2 = 10.0;
         return std::make_unique<algo::OnlineApprox>(options);
       }}};
  obs::EventLog* log = install_buffer_log();
  ExperimentOptions options;
  options.repetitions = 1;
  (void)run_experiment([](int) { return test_instance(5, 3); }, roster,
                       options);
  const std::string events = flush_and_drop(log);
  for (const char* name : {"eps=1", "eps=10"}) {
    SCOPED_TRACE(name);
    const std::string label = std::string("\"algorithm\":\"") + name + "\"";
    EXPECT_NE(events.find("\"kind\":\"run_begin\"," + label),
              std::string::npos);
    EXPECT_NE(events.find("\"kind\":\"result\"," + label),
              std::string::npos);
  }
  EXPECT_EQ(events.find("\"algorithm\":\"online-approx\""),
            std::string::npos);
  // An unlabelled experiment records an empty label.
  EXPECT_NE(events.find("\"kind\":\"experiment_begin\",\"label\":\"\","),
            std::string::npos);
}

}  // namespace
}  // namespace eca::sim
