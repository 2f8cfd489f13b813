// EventLog unit tests: the bounded lock-free buffer (claim order,
// drop-and-count overflow), the eca.events.v4 JSONL serialization, label
// copying/truncation/escaping, and the null-log no-op contract of the emit
// helpers. The Python side of the format lives in
// scripts/validate_telemetry.py --events, which check.sh runs on real
// streams; this test pins the C++ writer.
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "obs/events.h"

namespace eca::obs {
namespace {

EventLogOptions buffer_only(std::size_t capacity) {
  EventLogOptions options;
  options.path = "";  // flush_to() only; flush() must report no sink
  options.capacity = capacity;
  return options;
}

RunTelemetry one_slot_run(std::string algorithm) {
  RunTelemetry run;
  run.algorithm = std::move(algorithm);
  run.num_clouds = 4;
  run.num_users = 10;
  run.num_slots = 1;
  run.total_cost = 1.875;
  SlotTelemetry& slot = run.slots.emplace_back();
  slot.cost_operation = 1.0;
  slot.cost_service_quality = 0.5;
  slot.cost_reconfiguration = 0.25;
  slot.cost_migration = 0.125;
  slot.has_solve = true;
  slot.solve.newton_iterations = 12;
  slot.solve.mu_steps = 5;
  slot.solve.kkt_comp_avg = 0.25;
  slot.solve.kkt_dual_residual = 0.5;
  slot.solve.warm_started = true;
  return run;
}

TEST(Events, FlushToWritesHeaderAndClaimOrder) {
  EventLog log(buffer_only(16));
  emit_run(&log, one_slot_run("online-approx"));
  EXPECT_EQ(log.recorded(), 4u);
  EXPECT_EQ(log.dropped(), 0u);

  std::ostringstream os;
  log.flush_to(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("{\"schema\":\"eca.events.v4\",\"events\":4,"
                      "\"dropped\":0}\n"),
            std::string::npos);
  // One line per event, stamped with its claim-order sequence number.
  EXPECT_NE(text.find("{\"seq\":0,\"kind\":\"run_begin\","
                      "\"algorithm\":\"online-approx\",\"clouds\":4,"
                      "\"users\":10,\"slots\":1}\n"),
            std::string::npos);
  EXPECT_NE(text.find("{\"seq\":1,\"kind\":\"slot\",\"slot\":0,"
                      "\"cost_operation\":1,\"cost_service_quality\":0.5,"
                      "\"cost_reconfiguration\":0.25,"
                      "\"cost_migration\":0.125}\n"),
            std::string::npos);
  EXPECT_NE(text.find("{\"seq\":2,\"kind\":\"solve\",\"slot\":0,"
                      "\"newton_iterations\":12,\"mu_steps\":5,"
                      "\"warm_started\":true,\"warm_fallback\":false,"
                      "\"kkt_comp_avg\":0.25,\"kkt_dual_residual\":0.5}\n"),
            std::string::npos);
  EXPECT_NE(text.find("{\"seq\":3,\"kind\":\"run_end\","
                      "\"algorithm\":\"online-approx\",\"slots\":1,"
                      "\"newton_iterations\":12,\"warm_fallback_slots\":0,"
                      "\"warm_started_slots\":1,\"total_cost\":1.875}\n"),
            std::string::npos);
}

TEST(Events, OverflowDropsAndCounts) {
  EventLog log(buffer_only(2));
  for (std::size_t rep = 0; rep < 5; ++rep) emit_rep_end(&log, rep);
  EXPECT_EQ(log.recorded(), 2u);
  EXPECT_EQ(log.dropped(), 3u);
  std::ostringstream os;
  log.flush_to(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"events\":2,\"dropped\":3}"), std::string::npos);
  // Only the first two claims made it into the buffer.
  EXPECT_NE(text.find("{\"seq\":0,\"kind\":\"rep_end\",\"rep\":0}"),
            std::string::npos);
  EXPECT_NE(text.find("{\"seq\":1,\"kind\":\"rep_end\",\"rep\":1}"),
            std::string::npos);
  EXPECT_EQ(text.find("\"rep\":2"), std::string::npos);
}

TEST(Events, LabelIsCopiedTruncatedAndEscaped) {
  EventRecord ev;
  ev.set_label(std::string(100, 'x'));  // longer than the fixed field
  EXPECT_EQ(std::string(ev.label).size(), sizeof(ev.label) - 1);

  EventLog log(buffer_only(4));
  emit_run(&log, one_slot_run("evil\"name\\"));
  std::ostringstream os;
  log.flush_to(os);
  EXPECT_NE(os.str().find("\"algorithm\":\"evil\\\"name\\\\\""),
            std::string::npos)
      << os.str();
}

TEST(Events, EmitHelpersNoOpOnNullLog) {
  // Disabled streaming hands out a null log; every emitter must be safe.
  emit_experiment_begin(nullptr, "3pm", 3, 5);
  emit_rep_begin(nullptr, 0, 1.0);
  emit_run(nullptr, one_slot_run("a"));
  emit_result(nullptr, "a", 0, 1.0, 1.0);
  emit_rep_end(nullptr, 0);
  emit_experiment_end(nullptr, 15);
}

TEST(Events, FlushWithoutPathReportsNoSink) {
  EventLog log(buffer_only(4));
  emit_rep_end(&log, 0);
  EXPECT_FALSE(log.flush());  // buffer-only logs flush via flush_to()
}

TEST(Events, InstallGlobalEventsReplacesAndDrops) {
  EventLog* log = install_global_events(buffer_only(8));
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(global_events(), log);
  emit_rep_end(log, 1);
  EXPECT_EQ(log->recorded(), 1u);
  // A second install replaces the log; the handle registry hands out the
  // new one.
  EventLog* next = install_global_events(buffer_only(8));
  EXPECT_EQ(global_events(), next);
  EXPECT_EQ(next->recorded(), 0u);
  drop_global_events();
  EXPECT_EQ(global_events(), nullptr);
}

}  // namespace
}  // namespace eca::obs
