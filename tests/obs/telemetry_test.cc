// TelemetrySink / RunTelemetry accounting, attach_reference's ratio/regret
// attribution, and the eca.telemetry.v4 JSON emitted by io::write_telemetry.
// The Python side of the contract lives in scripts/validate_telemetry.py,
// which check.sh runs on a real instrumented trajectory; this test pins the
// C++ aggregation and serialization.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "io/serialize.h"
#include "obs/telemetry.h"

namespace eca::obs {
namespace {

RunTelemetry sample_run() {
  TelemetrySink sink;
  sink.begin_run("online-approx", 4, 10, 3);
  for (std::size_t t = 0; t < 3; ++t) {
    SlotTelemetry slot;
    slot.slot = t;
    slot.cost_operation = 1.0 + static_cast<double>(t);
    slot.cost_service_quality = 0.5;
    slot.cost_reconfiguration = 0.25;
    slot.cost_migration = 0.125;
    if (t > 0) {  // slot 0 mimics an algorithm without solver stats
      slot.has_solve = true;
      slot.solve.newton_iterations = 10 + static_cast<int>(t);
      slot.solve.mu_steps = 5;
      slot.solve.kkt_comp_avg = 1e-11;
      slot.solve.kkt_dual_residual = 2e-10;
      slot.solve.warm_started = (t == 2);
      slot.solve.warm_fallback = (t == 1);
      slot.solve.solve_seconds = 0.25;
    }
    sink.record_slot(slot);
  }
  return sink.finish(/*total_cost=*/(1.875) + (2.875) + (3.875),
                     /*wall_seconds=*/0.75);
}

TEST(Telemetry, SinkAssemblesRun) {
  const RunTelemetry run = sample_run();
  EXPECT_EQ(run.algorithm, "online-approx");
  EXPECT_EQ(run.num_clouds, 4u);
  EXPECT_EQ(run.num_users, 10u);
  EXPECT_EQ(run.num_slots, 3u);
  ASSERT_EQ(run.slots.size(), 3u);
  EXPECT_FALSE(run.empty());
  EXPECT_EQ(run.wall_seconds, 0.75);
  EXPECT_FALSE(run.slots[0].has_solve);
  EXPECT_TRUE(run.slots[1].has_solve);
}

TEST(Telemetry, CostSumsAndAggregates) {
  const RunTelemetry run = sample_run();
  EXPECT_DOUBLE_EQ(run.slots[0].cost_total(), 1.875);
  EXPECT_DOUBLE_EQ(run.slot_cost_sum(), run.total_cost);
  // Only slots with has_solve contribute to the solver aggregates.
  EXPECT_EQ(run.total_newton_iterations(), 11 + 12);
  EXPECT_EQ(run.warm_started_slots(), 1u);
  EXPECT_EQ(run.warm_fallback_slots(), 1u);
}

TEST(Telemetry, SinkResetsBetweenRuns) {
  TelemetrySink sink;
  sink.begin_run("a", 1, 1, 1);
  sink.record_slot(SlotTelemetry{});
  (void)sink.finish(1.0, 0.0);
  sink.begin_run("b", 2, 2, 0);
  const RunTelemetry second = sink.finish(0.0, 0.0);
  EXPECT_EQ(second.algorithm, "b");
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(second.slot_cost_sum(), 0.0);
  EXPECT_EQ(second.total_newton_iterations(), 0);
}

TEST(Telemetry, WriteTelemetryEmitsSchemaAndSlots) {
  const RunTelemetry run = sample_run();
  std::ostringstream os;
  io::write_telemetry(os, run);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"eca.telemetry.v4\""), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\": \"online-approx\""), std::string::npos);
  EXPECT_NE(json.find("\"num_slots\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"has_reference\": false"), std::string::npos);
  EXPECT_NE(json.find("\"trace_dropped\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"events_dropped\": 0"), std::string::npos);
  // Without a reference the per-slot attribution fields are omitted.
  EXPECT_EQ(json.find("\"ratio_cum\""), std::string::npos);
  EXPECT_NE(json.find("\"total_newton_iterations\": 23"), std::string::npos);
  EXPECT_NE(json.find("\"warm_started_slots\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"warm_fallback_slots\": 1"), std::string::npos);
  // Slot 0 has no solver record; slots 1 and 2 do.
  EXPECT_NE(json.find("{\"slot\":0,"), std::string::npos);
  EXPECT_EQ(json.find("{\"slot\":0,\"cost_operation\":1,"
                      "\"cost_service_quality\":0.5,"
                      "\"cost_reconfiguration\":0.25,"
                      "\"cost_migration\":0.125}"),
            json.find("{\"slot\":0,"));
  EXPECT_NE(json.find("\"solve\":{\"newton_iterations\":11,"),
            std::string::npos);
  EXPECT_NE(json.find("\"warm_fallback\":true"), std::string::npos);
  EXPECT_EQ(json.find("\"active_"), std::string::npos);
  // Exactly two solve records.
  std::size_t solves = 0;
  for (std::size_t at = json.find("\"solve\":"); at != std::string::npos;
       at = json.find("\"solve\":", at + 1)) {
    ++solves;
  }
  EXPECT_EQ(solves, 2u);
}

TEST(Telemetry, AttachReferenceFillsRatioAndRegret) {
  RunTelemetry run = sample_run();  // slot costs 1.875, 2.875, 3.875
  TelemetrySink ref_sink;
  ref_sink.begin_run("offline-opt", 4, 10, 3);
  for (std::size_t t = 0; t < 3; ++t) {
    SlotTelemetry slot;
    slot.slot = t;
    slot.cost_operation = 1.0;
    slot.cost_service_quality = 0.25;
    slot.cost_reconfiguration = 0.125;
    slot.cost_migration = 0.125;  // per-slot reference total 1.5
    ref_sink.record_slot(slot);
  }
  const RunTelemetry reference = ref_sink.finish(4.5, 0.0);

  attach_reference(run, reference);
  EXPECT_TRUE(run.has_reference);
  EXPECT_DOUBLE_EQ(run.offline_total_cost, 4.5);
  EXPECT_DOUBLE_EQ(run.ratio(), run.total_cost / 4.5);
  EXPECT_DOUBLE_EQ(run.slots[0].offline_cost, 1.5);
  EXPECT_DOUBLE_EQ(run.slots[0].ratio_cum, 1.875 / 1.5);
  EXPECT_DOUBLE_EQ(run.slots[1].ratio_cum, (1.875 + 2.875) / 3.0);
  EXPECT_DOUBLE_EQ(run.slots[2].ratio_cum, (1.875 + 2.875 + 3.875) / 4.5);
  // The regret split decomposes each slot's excess over the reference.
  EXPECT_DOUBLE_EQ(run.slots[1].regret_operation, 2.0 - 1.0);
  EXPECT_DOUBLE_EQ(run.slots[1].regret_service_quality, 0.5 - 0.25);
  EXPECT_DOUBLE_EQ(run.slots[1].regret_total(),
                   run.slots[1].cost_total() - 1.5);

  // The serialized form now carries the attribution fields.
  std::ostringstream os;
  io::write_telemetry(os, run);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"has_reference\": true"), std::string::npos);
  EXPECT_NE(json.find("\"offline_total_cost\": 4.5"), std::string::npos);
  EXPECT_NE(json.find("\"ratio_cum\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"regret_operation\":2"), std::string::npos);
}

TEST(Telemetry, AttachReferenceIgnoresEmptyReference) {
  RunTelemetry run = sample_run();
  attach_reference(run, RunTelemetry{});
  EXPECT_FALSE(run.has_reference);
  EXPECT_EQ(run.ratio(), 0.0);
}

TEST(Telemetry, WriteTelemetryEscapesAlgorithmName) {
  TelemetrySink sink;
  sink.begin_run("evil\"name\\", 1, 1, 0);
  const RunTelemetry run = sink.finish(0.0, 0.0);
  std::ostringstream os;
  io::write_telemetry(os, run);
  EXPECT_NE(os.str().find("\"algorithm\": \"evil\\\"name\\\\\""),
            std::string::npos)
      << os.str();
}

}  // namespace
}  // namespace eca::obs
