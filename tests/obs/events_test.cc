// EventLog unit tests: the bounded lock-free buffer (claim order,
// drop-and-count overflow), the eca.events.v2 JSONL serialization, label
// copying/truncation/escaping, and the null-log no-op contract of the emit
// helpers. The Python side of the format lives in
// scripts/validate_telemetry.py --events, which check.sh runs on a real
// stream; this test pins the C++ writer.
#include <sstream>
#include <string>

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

TEST(Events, FlushToWritesHeaderAndClaimOrder) {
  EventLog log(buffer_only(16));
  emit_run_begin(&log, "online-approx", 4, 10, 3);
  SolveTelemetry solve;
  solve.newton_iterations = 12;
  solve.mu_steps = 5;
  solve.warm_started = true;
  emit_solve(&log, 0, solve);
  emit_slot(&log, 0, 1.0, 0.5, 0.25, 0.125);
  EXPECT_EQ(log.recorded(), 3u);
  EXPECT_EQ(log.dropped(), 0u);

  std::ostringstream os;
  log.flush_to(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("{\"schema\":\"eca.events.v2\",\"events\":3,"
                      "\"dropped\":0}\n"),
            std::string::npos);
  // One line per event, stamped with its claim-order sequence number.
  EXPECT_NE(text.find("{\"seq\":0,\"kind\":\"run_begin\","
                      "\"algorithm\":\"online-approx\",\"clouds\":4,"
                      "\"users\":10,\"slots\":3}\n"),
            std::string::npos);
  EXPECT_NE(text.find("{\"seq\":1,\"kind\":\"solve\",\"slot\":0,"
                      "\"newton_iterations\":12,\"mu_steps\":5,"
                      "\"warm_started\":true,\"warm_fallback\":false}\n"),
            std::string::npos);
  EXPECT_NE(text.find("{\"seq\":2,\"kind\":\"slot\",\"slot\":0,"
                      "\"cost_operation\":1,\"cost_service_quality\":0.5,"
                      "\"cost_reconfiguration\":0.25,"
                      "\"cost_migration\":0.125}\n"),
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
  emit_run_begin(&log, "evil\"name\\", 1, 1, 1);
  std::ostringstream os;
  log.flush_to(os);
  EXPECT_NE(os.str().find("\"algorithm\":\"evil\\\"name\\\\\""),
            std::string::npos)
      << os.str();
}

TEST(Events, EmitHelpersNoOpOnNullLog) {
  // Disabled streaming hands out a null log; every emitter must be safe.
  emit_experiment_begin(nullptr, 3, 5);
  emit_rep_begin(nullptr, 0, 1.0);
  emit_run_begin(nullptr, "a", 1, 1, 1);
  emit_workers(nullptr, "baseline_slots", 10, 64, true);
  emit_slot(nullptr, 0, 1.0, 1.0, 1.0, 1.0);
  emit_solve(nullptr, 0, SolveTelemetry{});
  emit_run_end(nullptr, RunTelemetry{});
  emit_result(nullptr, "a", 0, 1.0, 1.0);
  emit_rep_end(nullptr, 0);
  emit_experiment_end(nullptr, 15);
}

TEST(Events, FlushWithoutPathReportsNoSink) {
  EventLog log(buffer_only(4));
  emit_rep_end(&log, 0);
  EXPECT_FALSE(log.flush());  // buffer-only logs flush via flush_to()
}

TEST(Events, WorkersEventCarriesPolicyInputsNotResolvedCounts) {
  // The determinism contract: the payload records work volume, floor and
  // eligibility — reproducible on any host — never a resolved worker count.
  EventLog log(buffer_only(4));
  emit_workers(&log, "baseline_slots", 78, 64, false);
  std::ostringstream os;
  log.flush_to(os);
  EXPECT_NE(os.str().find("{\"seq\":0,\"kind\":\"workers\","
                          "\"scope\":\"baseline_slots\",\"work\":78,"
                          "\"min_work\":64,\"eligible\":false}"),
            std::string::npos)
      << os.str();
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
