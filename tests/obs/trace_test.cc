// TraceSession behaviour under an injected clock: span recording, the
// Chrome-trace serialization contract (strict JSON array, one complete
// event per line, microsecond timestamps), the counter events a file flush
// appends, drop-on-overflow accounting, and the global-session install/drop
// lifecycle.
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"  // thread_ordinal for the expected tid; counters
#include "obs/trace.h"

namespace eca::obs {
namespace {

// Deterministic injectable clock: advances 1000 ns per read, so a span
// created and destroyed back to back has start = k*1000 and dur = 1000.
std::uint64_t g_fake_now = 0;
std::uint64_t fake_clock() { return g_fake_now += 1000; }

TraceOptions fake_options(std::size_t capacity = 64) {
  TraceOptions options;
  options.path.clear();  // flush_to() only; no file output
  options.capacity = capacity;
  options.clock = &fake_clock;
  return options;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

TEST(Trace, SpanRecordsOneCompleteEvent) {
  g_fake_now = 0;
  TraceSession session(fake_options());
  { TraceSpan span(&session, "unit_span"); }
  ASSERT_EQ(session.recorded(), 1u);
  EXPECT_EQ(session.dropped(), 0u);

  std::ostringstream os;
  session.flush_to(os);
  const std::vector<std::string> lines = lines_of(os.str());
  // Strict JSON array, one event per line.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines.front(), "[");
  EXPECT_EQ(lines.back(), "]");
  // start_ns = 1000 (first clock read), dur_ns = 1000 (second - first);
  // serialized in microseconds with ph:"X". The tid is this thread's
  // process-wide ordinal, which depends on which test ran first.
  const std::string expected =
      "{\"name\":\"unit_span\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
      std::to_string(internal::thread_ordinal()) +
      ",\"ts\":1.000,\"dur\":1.000}";
  EXPECT_EQ(lines[1], expected);
}

TEST(Trace, SpanArgIsEmitted) {
  g_fake_now = 0;
  TraceSession session(fake_options());
  {
    TraceSpan span(&session, "slot_decide");
    span.set_arg("t", 7.0);
  }
  std::ostringstream os;
  session.flush_to(os);
  EXPECT_NE(os.str().find("\"args\":{\"t\":7}"), std::string::npos)
      << os.str();
}

TEST(Trace, FileFlushAppendsOneCounterEventPerRegisteredCounter) {
  Counter& counter = MetricsRegistry::global().counter("test.trace_counter");
  DoubleCounter& seconds =
      MetricsRegistry::global().double_counter("test.trace_seconds");
  counter.reset();
  seconds.reset();
  counter.add(41);
  seconds.add(0.5);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();

  g_fake_now = 0;
  TraceOptions options = fake_options();
  options.path = ::testing::TempDir() + "trace_counters.json";
  {
    TraceSession session(options);
    { TraceSpan span(&session, "unit_span"); }
    ASSERT_TRUE(session.flush());
  }
  std::ifstream in(options.path);
  std::stringstream text;
  text << in.rdbuf();
  const std::vector<std::string> lines = lines_of(text.str());
  // [, the span, one counter event per registered counter, ].
  ASSERT_EQ(lines.size(),
            3 + snap.counters.size() + snap.double_counters.size());
  EXPECT_EQ(lines.front(), "[");
  EXPECT_EQ(lines.back(), "]");
  EXPECT_NE(lines[1].find("\"ph\":\"X\""), std::string::npos);
  // Counter events follow the spans in registration order, every line but
  // the last comma-terminated so the file stays a JSON array.
  std::size_t row = 2;
  for (const auto& [name, total] : snap.counters) {
    const std::string& line = lines[row++];
    EXPECT_EQ(line.rfind("{\"name\":\"" + name + "\",\"ph\":\"C\"", 0), 0u)
        << line;
    EXPECT_NE(line.find("\"tid\":0,"), std::string::npos) << line;
    if (name == "test.trace_counter") {
      EXPECT_NE(line.find("\"args\":{\"value\":41}}"), std::string::npos)
          << line;
    }
  }
  for (const auto& [name, total] : snap.double_counters) {
    const std::string& line = lines[row++];
    EXPECT_EQ(line.rfind("{\"name\":\"" + name + "\",\"ph\":\"C\"", 0), 0u)
        << line;
    if (name == "test.trace_seconds") {
      EXPECT_NE(line.find("\"args\":{\"value\":0.5}}"), std::string::npos)
          << line;
    }
  }
  for (std::size_t i = 1; i + 2 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].back(), ',') << lines[i];
  }
  EXPECT_NE(lines[lines.size() - 2].back(), ',');
}

TEST(Trace, NullSessionSpanIsNoOp) {
  TraceSpan span(nullptr, "nothing");
  span.set_arg("x", 1.0);
  // Destruction must not crash; nothing to assert beyond surviving.
}

TEST(Trace, OverflowDropsAndCounts) {
  g_fake_now = 0;
  TraceSession session(fake_options(/*capacity=*/2));
  for (int i = 0; i < 5; ++i) {
    TraceSpan span(&session, "crowded");
  }
  EXPECT_EQ(session.recorded(), 2u);
  EXPECT_EQ(session.dropped(), 3u);
  std::ostringstream os;
  session.flush_to(os);
  EXPECT_EQ(lines_of(os.str()).size(), 4u);  // [, two events, ]
}

TEST(Trace, EmptySessionFlushesEmptyArray) {
  TraceSession session(fake_options());
  std::ostringstream os;
  session.flush_to(os);
  const std::vector<std::string> lines = lines_of(os.str());
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines.front(), "[");
  EXPECT_EQ(lines.back(), "]");
}

TEST(Trace, GlobalInstallAndDrop) {
  TraceSession* session = install_global_trace(fake_options());
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(global_trace(), session);
  {
    ECA_TRACE_SPAN("global_span");
  }
  EXPECT_EQ(session->recorded(), 1u);
  drop_global_trace();
  EXPECT_EQ(global_trace(), nullptr);
  {
    ECA_TRACE_SPAN("ignored_span");  // no-op on a null global session
  }
}

}  // namespace
}  // namespace eca::obs
