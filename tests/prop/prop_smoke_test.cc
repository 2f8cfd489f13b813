// The prop-smoke entry point of the property harness (DESIGN.md §13):
// >= 50 seeded scenarios through every differential leg with zero oracle
// violations, replay-format round trips, and the full forced-failure
// pipeline — fault plan -> oracle violation -> greedy shrink -> minimal
// replay file -> deterministic reproduction.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "check/harness.h"
#include "check/oracle.h"
#include "check/scenario.h"
#include "check/shrink.h"
#include "common/rng.h"

namespace eca::check {
namespace {

TEST(PropScenario, GeneratorCoversKnobSpace) {
  Rng rng(2024);
  std::set<int> mobility_seen;
  bool degenerate_users = false;
  bool degenerate_clouds = false;
  bool degenerate_slots = false;
  bool heavy_seen = false;
  bool paper_pure_seen = false;
  bool capacity_rows_seen = false;
  for (int k = 0; k < 300; ++k) {
    const Scenario s = generate_scenario(rng);
    ASSERT_EQ(validate(s), "") << "scenario " << k << " invalid";
    mobility_seen.insert(static_cast<int>(s.mobility));
    degenerate_users |= s.num_users == 1;
    degenerate_clouds |= s.num_clouds == 1;
    degenerate_slots |= s.num_slots == 1;
    heavy_seen |= s.heavy_tailed;
    paper_pure_seen |= !s.enforce_capacity;
    capacity_rows_seen |= s.enforce_capacity;
  }
  EXPECT_EQ(mobility_seen.size(), 4u);
  EXPECT_TRUE(degenerate_users);
  EXPECT_TRUE(degenerate_clouds);
  EXPECT_TRUE(degenerate_slots);
  EXPECT_TRUE(heavy_seen);
  EXPECT_TRUE(paper_pure_seen);
  EXPECT_TRUE(capacity_rows_seen);
}

TEST(PropScenario, MaterializeIsDeterministicAndValid) {
  Rng rng(7);
  for (int k = 0; k < 20; ++k) {
    const Scenario s = generate_scenario(rng);
    const model::Instance a = materialize(s);
    const model::Instance b = materialize(s);
    ASSERT_EQ(a.validate(), "");
    ASSERT_EQ(a.num_clouds, s.num_clouds);
    ASSERT_EQ(a.num_users, s.num_users);
    ASSERT_EQ(a.num_slots, s.num_slots);
    ASSERT_EQ(a.demand, b.demand);
    ASSERT_EQ(a.capacities(), b.capacities());
    ASSERT_EQ(a.attachment, b.attachment);
  }
}

TEST(PropScenario, ReplayRoundTrip) {
  Rng rng(11);
  for (int k = 0; k < 25; ++k) {
    const Scenario s = generate_scenario(rng);
    Scenario back;
    std::string error;
    ASSERT_TRUE(from_replay(to_replay(s), back, &error)) << error;
    EXPECT_EQ(back.seed, s.seed);
    EXPECT_EQ(back.num_clouds, s.num_clouds);
    EXPECT_EQ(back.num_users, s.num_users);
    EXPECT_EQ(back.num_slots, s.num_slots);
    EXPECT_EQ(back.mobility, s.mobility);
    EXPECT_EQ(back.demand_scale, s.demand_scale);
    EXPECT_EQ(back.heavy_tailed, s.heavy_tailed);
    EXPECT_EQ(back.capacity_factor, s.capacity_factor);
    EXPECT_EQ(back.price_scale, s.price_scale);
    EXPECT_EQ(back.eps1, s.eps1);
    EXPECT_EQ(back.eps2, s.eps2);
    EXPECT_EQ(back.enforce_capacity, s.enforce_capacity);
    EXPECT_EQ(back.mu, s.mu);
  }
}

TEST(PropScenario, ReplayRejectsMalformedInput) {
  Scenario out;
  std::string error;
  EXPECT_FALSE(from_replay("schema=eca.prop.v2\nseed=1\n", out, &error));
  EXPECT_FALSE(from_replay("seed=1\n", out, &error));  // no schema line
  EXPECT_FALSE(
      from_replay("schema=eca.prop.v1\nbogus_key=3\n", out, &error));
  EXPECT_FALSE(
      from_replay("schema=eca.prop.v1\nnum_users=banana\n", out, &error));
}

// The tentpole acceptance gate: >= 50 seeded scenarios through all
// differential legs (L0..L5 where the shape admits the offline legs), zero
// oracle violations. The shapes are tiny so this stays test-suite-fast.
TEST(PropHarness, SmokeFiftyScenariosZeroViolations) {
  HarnessOptions options;
  options.seed = 1;
  options.num_scenarios = 50;
  const HarnessSummary summary = run_harness(options);
  EXPECT_EQ(summary.scenarios_run, 50);
  EXPECT_EQ(summary.failures, 0);
  for (const HarnessFailure& failure : summary.failure_details) {
    ADD_FAILURE() << "seed " << failure.scenario.seed << ": "
                  << failure.first_violation;
  }
  // The sweep must exercise the offline legs, not just skip them all.
  EXPECT_GT(summary.offline_legs_run, 10);
  EXPECT_LT(summary.worst_kkt, 1e-4);
  EXPECT_LT(summary.worst_infeasibility, 1e-5);
}

// The forced-failure pipeline, end to end: a single-shot ipm_fail plan
// poisons the offline IPM solve (the oracle's first interior-point LP
// attempt), which the oracle flags; the shrinker reduces the scenario while
// the failure survives; the minimal witness round-trips through a replay
// file; and replaying it reproduces the identical violation (twice —
// determinism is the point). pdhg_fail would NOT work here: solve_offline
// deliberately forgives an iteration-limited PDHG whose residuals already
// met the target (see algo/offline.cc), and the injected status flip leaves
// the converged residuals intact.
TEST(PropHarness, ForcedFaultShrinksToMinimalReplay) {
  OracleOptions oracle;
  oracle.fault_plan = "ipm_fail@1";

  Scenario scenario;  // default shape: I=3, J=4, T=3 — offline legs run
  scenario.seed = 42;
  const OracleReport failing = run_oracle(scenario, oracle);
  ASSERT_FALSE(failing.ok());
  EXPECT_NE(failing.first_violation().find("offline IPM"), std::string::npos)
      << failing.first_violation();

  const ShrinkResult shrunk = shrink(scenario, oracle);
  EXPECT_GT(shrunk.accepted, 0);
  EXPECT_GT(shrunk.evaluations, shrunk.accepted);
  // The fault fires on the first PDHG solve regardless of shape, so the
  // greedy fixpoint must reach the floor on every axis.
  EXPECT_EQ(shrunk.scenario.num_users, 1u);
  EXPECT_EQ(shrunk.scenario.num_clouds, 1u);
  EXPECT_EQ(shrunk.scenario.num_slots, 1u);

  const std::string path =
      ::testing::TempDir() + "prop_forced_fault.replay";
  ASSERT_TRUE(save_replay(path, shrunk.scenario));
  Scenario replayed;
  std::string error;
  ASSERT_TRUE(load_replay(path, replayed, &error)) << error;
  std::remove(path.c_str());

  const OracleReport first = run_oracle(replayed, oracle);
  const OracleReport second = run_oracle(replayed, oracle);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.violations, second.violations);
  EXPECT_EQ(first.first_violation(), failing.first_violation());

  // Without the plan the minimal witness is clean: the failure was the
  // injected fault, not a latent solver defect.
  OracleOptions clean = oracle;
  clean.fault_plan.clear();
  EXPECT_TRUE(run_oracle(replayed, clean).ok());
}

// The harness-level version of the same pipeline: run_harness detects the
// forced failure, shrinks it and writes the replay file itself.
TEST(PropHarness, HarnessWritesReplayForForcedFailure) {
  HarnessOptions options;
  options.seed = 5;
  options.num_scenarios = 1;
  options.replay_dir = ::testing::TempDir();
  options.oracle.fault_plan = "ipm_fail@1";
  const HarnessSummary summary = run_harness(options);
  ASSERT_EQ(summary.failures, 1);
  ASSERT_EQ(summary.failure_details.size(), 1u);
  const HarnessFailure& failure = summary.failure_details[0];
  ASSERT_FALSE(failure.replay_path.empty());

  Scenario replayed;
  std::string error;
  ASSERT_TRUE(load_replay(failure.replay_path, replayed, &error)) << error;
  EXPECT_EQ(replayed.num_users, failure.shrunk.num_users);
  const OracleReport report = run_oracle(replayed, options.oracle);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.first_violation(), failure.first_violation);
  std::remove(failure.replay_path.c_str());
}

}  // namespace
}  // namespace eca::check
