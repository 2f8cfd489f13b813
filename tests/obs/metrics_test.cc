// MetricsRegistry semantics: handle identity, sharded merging,
// reset_values, and snapshot lookups. Concurrency here is correctness-of-totals (integer adds are
// exact under any interleaving); the TSan pass over the same primitives
// lives in tests/solve/obs_parallel_test.cc.
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace eca::obs {
namespace {

// Every test runs against the process-global registry (that is the contract
// hot-path call sites rely on), so each starts from zeroed values.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::global().reset_values(); }
  void TearDown() override { MetricsRegistry::global().reset_values(); }
};

TEST_F(MetricsTest, CounterAddsAndResets) {
  Counter& c = MetricsRegistry::global().counter("test.counter");
  EXPECT_EQ(c.total(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.total(), 42u);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST_F(MetricsTest, HandleIsStableAcrossLookups) {
  Counter& a = MetricsRegistry::global().counter("test.same_name");
  Counter& b = MetricsRegistry::global().counter("test.same_name");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.total(), 7u);
}

TEST_F(MetricsTest, DoubleCounterAccumulates) {
  DoubleCounter& c = MetricsRegistry::global().double_counter("test.seconds");
  c.add(0.25);
  c.add(1.5);
  c.add(2.25);
  EXPECT_EQ(c.total(), 4.0);
}

TEST_F(MetricsTest, ConcurrentAddsMergeExactly) {
  Counter& c = MetricsRegistry::global().counter("test.concurrent");
  Counter& sum = MetricsRegistry::global().counter("test.concurrent_sum");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        sum.add(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : workers) t.join();
  // Integer shard cells merge exactly regardless of which shard each thread
  // landed on.
  EXPECT_EQ(c.total(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(sum.total(), static_cast<std::uint64_t>(kThreads) * kPerThread *
                           (kPerThread - 1) / 2);
}

TEST_F(MetricsTest, SnapshotLooksUpByName) {
  MetricsRegistry::global().counter("test.snap_counter").add(11);
  MetricsRegistry::global().double_counter("test.snap_double").add(2.5);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter("test.snap_counter"), 11u);
  EXPECT_EQ(snap.double_counter("test.snap_double"), 2.5);
  EXPECT_EQ(snap.counter("test.no_such_metric", 99), 99u);
  EXPECT_EQ(snap.double_counter("test.no_such_metric", -1.0), -1.0);
}

TEST_F(MetricsTest, ResetValuesKeepsHandlesValid) {
  Counter& c = MetricsRegistry::global().counter("test.reset_all");
  c.add(9);
  MetricsRegistry::global().reset_values();
  EXPECT_EQ(c.total(), 0u);
  c.add(2);
  EXPECT_EQ(c.total(), 2u);
  EXPECT_EQ(MetricsRegistry::global().snapshot().counter("test.reset_all"),
            2u);
}

// A name belongs to one kind: a second registration as the other kind
// aborts instead of creating a second metric under the same name.
TEST(MetricsDeathTest, OneNameCannotBeTwoKinds) {
  EXPECT_DEATH(
      {
        MetricsRegistry registry;
        registry.counter("x");
        registry.double_counter("x");
      },
      "'x' is already a counter");
  EXPECT_DEATH(
      {
        MetricsRegistry registry;
        registry.double_counter("x");
        registry.counter("x");
      },
      "'x' is already a double counter");
}

}  // namespace
}  // namespace eca::obs
