// Fail-fast contract of the ECA_* environment knobs: a set-but-invalid
// value is a fatal configuration error (exit(2)), never a silently ignored
// or defaulted one. Each parser is public exactly so these death tests can
// drive the validation directly; the examples' command-line numbers are
// checked through their binaries.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

#include "check/harness.h"
#include "common/env.h"
#include "common/thread_pool.h"
#include "obs/events.h"
#include "obs/trace.h"

namespace {

// Scoped setenv/unsetenv so a death test cannot leak its poisoned value
// into later tests in the binary.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(EnvDeathTest, TraceCapRejectsNonNumeric) {
  ScopedEnv cap("ECA_TRACE_CAP", "abc");
  EXPECT_EXIT(eca::obs::trace_cap_from_env(), ::testing::ExitedWithCode(2),
              "ECA_TRACE_CAP");
}

TEST(EnvDeathTest, TraceCapRejectsZero) {
  ScopedEnv cap("ECA_TRACE_CAP", "0");
  EXPECT_EXIT(eca::obs::trace_cap_from_env(), ::testing::ExitedWithCode(2),
              "ECA_TRACE_CAP");
}

TEST(EnvDeathTest, TraceCapParsesValidValue) {
  ScopedEnv cap("ECA_TRACE_CAP", "4096");
  EXPECT_EQ(eca::obs::trace_cap_from_env(), 4096u);
}

TEST(EnvDeathTest, EventsCapRejectsZero) {
  const std::string path = ::testing::TempDir() + "events_death.jsonl";
  ScopedEnv events("ECA_EVENTS", path.c_str());
  ScopedEnv cap("ECA_EVENTS_CAP", "0");
  eca::obs::EventLogOptions options;
  EXPECT_EXIT(eca::obs::events_options_from_env(options),
              ::testing::ExitedWithCode(2), "ECA_EVENTS_CAP");
}

TEST(EnvDeathTest, EventsRejectsEmptyPath) {
  ScopedEnv events("ECA_EVENTS", "");
  eca::obs::EventLogOptions options;
  EXPECT_EXIT(eca::obs::events_options_from_env(options),
              ::testing::ExitedWithCode(2), "ECA_EVENTS");
}

TEST(EnvDeathTest, EventsRejectsUnwritablePath) {
  ScopedEnv events("ECA_EVENTS", "/nonexistent_eca_dir/events.jsonl");
  eca::obs::EventLogOptions options;
  EXPECT_EXIT(eca::obs::events_options_from_env(options),
              ::testing::ExitedWithCode(2), "not writable");
}

TEST(EnvDeathTest, PropSeedRejectsNonNumeric) {
  ScopedEnv seed("ECA_PROP_SEED", "zzz");
  EXPECT_EXIT(eca::check::prop_seed_from_env(1),
              ::testing::ExitedWithCode(2), "ECA_PROP_SEED");
}

TEST(EnvDeathTest, PropSeedRejectsTrailingGarbage) {
  ScopedEnv seed("ECA_PROP_SEED", "12x");
  EXPECT_EXIT(eca::check::prop_seed_from_env(1),
              ::testing::ExitedWithCode(2), "ECA_PROP_SEED");
}

TEST(EnvDeathTest, PropSeedParsesValidValue) {
  ScopedEnv seed("ECA_PROP_SEED", "12345");
  EXPECT_EQ(eca::check::prop_seed_from_env(1), 12345u);
}

TEST(EnvDeathTest, PropScenariosRejectsZeroAndNegative) {
  {
    ScopedEnv n("ECA_PROP_SCENARIOS", "0");
    EXPECT_EXIT(eca::check::prop_scenarios_from_env(50),
                ::testing::ExitedWithCode(2), "ECA_PROP_SCENARIOS");
  }
  {
    ScopedEnv n("ECA_PROP_SCENARIOS", "-3");
    EXPECT_EXIT(eca::check::prop_scenarios_from_env(50),
                ::testing::ExitedWithCode(2), "ECA_PROP_SCENARIOS");
  }
}

TEST(EnvDeathTest, PropScenariosRejectsOverCap) {
  ScopedEnv n("ECA_PROP_SCENARIOS", "1000001");
  EXPECT_EXIT(eca::check::prop_scenarios_from_env(50),
              ::testing::ExitedWithCode(2), "ECA_PROP_SCENARIOS");
}

TEST(EnvDeathTest, PropScenariosParsesValidValue) {
  ScopedEnv n("ECA_PROP_SCENARIOS", "200");
  EXPECT_EQ(eca::check::prop_scenarios_from_env(50), 200);
}

TEST(EnvDeathTest, ThreadsRejectsNonNumeric) {
  ScopedEnv threads("ECA_THREADS", "eight");
  EXPECT_EXIT(eca::ThreadPool::resolve_threads(),
              ::testing::ExitedWithCode(2), "ECA_THREADS");
}

TEST(EnvDeathTest, SlotThreadsRejectsZero) {
  ScopedEnv threads("ECA_SLOT_THREADS", "0");
  EXPECT_EXIT(eca::ThreadPool::resolve_slot_threads(),
              ::testing::ExitedWithCode(2), "ECA_SLOT_THREADS");
}

TEST(EnvDeathTest, LpThreadsRejectsNegative) {
  ScopedEnv threads("ECA_LP_THREADS", "-1");
  EXPECT_EXIT(eca::ThreadPool::resolve_lp_threads(),
              ::testing::ExitedWithCode(2), "ECA_LP_THREADS");
}

TEST(EnvDeathTest, EnvIntRejectsBelowMinimum) {
  ScopedEnv users("ECA_USERS", "0");
  EXPECT_EXIT(eca::env_int("ECA_USERS", 30, 1), ::testing::ExitedWithCode(2),
              "ECA_USERS");
}

TEST(EnvDeathTest, EnvDoubleRejectsNonNumeric) {
  ScopedEnv scale("ECA_BW_SCALE", "0.4x");
  EXPECT_EXIT(eca::env_double("ECA_BW_SCALE", 0.4),
              ::testing::ExitedWithCode(2), "ECA_BW_SCALE");
}

TEST(EnvDeathTest, EnvParsersReadValidValues) {
  ScopedEnv users("ECA_USERS", "12");
  ScopedEnv scale("ECA_BW_SCALE", "0.25");
  EXPECT_EQ(eca::env_int("ECA_USERS", 30, 1), 12);
  EXPECT_EQ(eca::env_double("ECA_BW_SCALE", 0.4), 0.25);
}

// Command-line numbers keep the same contract through parse_int and
// parse_double: each statement below execs the real binary in the death
// test's child, so the exit status and stderr are the program's own.
TEST(EnvDeathTest, TaxiDayRejectsNonNumericUsers) {
  EXPECT_EXIT(::execl(ECA_TAXI_DAY, ECA_TAXI_DAY, "abc", nullptr),
              ::testing::ExitedWithCode(2), "users='abc' is invalid");
}

TEST(EnvDeathTest, TaxiDayRejectsTrailingGarbage) {
  EXPECT_EXIT(::execl(ECA_TAXI_DAY, ECA_TAXI_DAY, "5abc", nullptr),
              ::testing::ExitedWithCode(2), "users='5abc' is invalid");
}

TEST(EnvDeathTest, PropFuzzRejectsMalformedNumbers) {
  EXPECT_EXIT(::execl(ECA_PROP_FUZZ, ECA_PROP_FUZZ, "--scenarios", "2x",
                      nullptr),
              ::testing::ExitedWithCode(2), "--scenarios='2x' is invalid");
  EXPECT_EXIT(::execl(ECA_PROP_FUZZ, ECA_PROP_FUZZ, "--time-budget", "abc",
                      nullptr),
              ::testing::ExitedWithCode(2), "--time-budget='abc' is invalid");
  EXPECT_EXIT(::execl(ECA_PROP_FUZZ, ECA_PROP_FUZZ, "--seed", "zz", nullptr),
              ::testing::ExitedWithCode(2), "--seed='zz' is invalid");
}

TEST(EnvDeathTest, PropFuzzFailsWhenNoScenarioRuns) {
  // A time budget spent before the first scenario verifies nothing, and
  // the exit code is the prop gate, so the run must fail.
  EXPECT_EXIT(::execl(ECA_PROP_FUZZ, ECA_PROP_FUZZ, "--scenarios", "3",
                      "--time-budget", "1e-9", nullptr),
              ::testing::ExitedWithCode(1), "no scenario ran");
}

TEST(EnvDeathTest, RunInstanceRejectsMalformedLookaheadWindow) {
  // The name is checked before the instance file is read.
  EXPECT_EXIT(::execl(ECA_RUN_INSTANCE, ECA_RUN_INSTANCE, "missing.instance",
                      "lookahead-abc", nullptr),
              ::testing::ExitedWithCode(2),
              "lookahead window='abc' is invalid");
}

TEST(EnvDeathTest, Fig5RejectsMalformedUserEntry) {
  EXPECT_EXIT(
      {
        ::setenv("ECA_FIG5_USERS", "20,4O", 1);
        ::execl(ECA_BENCH_FIG5, ECA_BENCH_FIG5, nullptr);
      },
      ::testing::ExitedWithCode(2), "ECA_FIG5_USERS entry='4O' is invalid");
}

TEST(EnvDeathTest, UnsetKnobsFallBack) {
  ::unsetenv("ECA_PROP_SEED");
  ::unsetenv("ECA_PROP_SCENARIOS");
  ::unsetenv("ECA_TRACE_CAP");
  EXPECT_EQ(eca::check::prop_seed_from_env(7), 7u);
  EXPECT_EQ(eca::check::prop_scenarios_from_env(9), 9);
  EXPECT_EQ(eca::obs::trace_cap_from_env(), 0u);
}

}  // namespace
