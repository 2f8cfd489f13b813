// RunTelemetry and its one serialization: the run_end record obs::emit_run
// derives from the per-slot records (totals, Newton iterations, warm-start
// counts). The Python side of the accounting contract lives in
// scripts/validate_telemetry.py, which check.sh runs on real streams.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/events.h"
#include "obs/telemetry.h"

namespace eca::obs {
namespace {

RunTelemetry sample_run() {
  RunTelemetry run;
  run.algorithm = "online-approx";
  run.num_clouds = 4;
  run.num_users = 10;
  run.num_slots = 3;
  run.total_cost = 1.875 + 2.875 + 3.875;
  for (std::size_t t = 0; t < 3; ++t) {
    SlotTelemetry& slot = run.slots.emplace_back();
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
    }
  }
  return run;
}

std::size_t count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(Telemetry, CostSumsAndAggregates) {
  const RunTelemetry run = sample_run();
  EXPECT_DOUBLE_EQ(run.slots[0].cost_total(), 1.875);
  double sum = 0.0;
  for (const SlotTelemetry& slot : run.slots) sum += slot.cost_total();
  EXPECT_DOUBLE_EQ(sum, run.total_cost);

  EventLog log(EventLogOptions{"", 64});
  emit_run(&log, run);
  std::ostringstream os;
  log.flush_to(os);
  const std::string text = os.str();
  // run_begin, three slot records, two solve records, run_end.
  EXPECT_EQ(log.recorded(), 7u);
  EXPECT_EQ(count(text, "\"kind\":\"slot\""), 3u);
  EXPECT_EQ(count(text, "\"kind\":\"solve\""), 2u);
  // Only slots with has_solve contribute to the solver aggregates.
  EXPECT_NE(text.find("\"kind\":\"run_end\",\"algorithm\":\"online-approx\","
                      "\"slots\":3,\"newton_iterations\":23,"
                      "\"warm_fallback_slots\":1,\"warm_started_slots\":1,"
                      "\"total_cost\":8.625}"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace eca::obs
