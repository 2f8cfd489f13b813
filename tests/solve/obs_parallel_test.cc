// Observability determinism under chunk-parallel solves, plus the
// concurrent-update surface of the metrics/trace primitives.
//
// The contract (src/obs/metrics.h): reproducible counters — solve counts,
// Newton iteration totals, warm-start outcomes — are recorded only by the
// thread driving the slot sequence, so their merged totals must be
// BIT-IDENTICAL for every slot_threads value. The chunk workers record no
// metric at all.
//
// Own binary, labelled tsan-smoke: a -DECA_SANITIZE=thread build runs this
// under TSan to prove the sharded metric cells and the trace buffer's
// cursor claim really are race-free when hammered from a thread pool.
#include <cstddef>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solve/regularized_solver.h"

namespace eca::solve {
namespace {

class ObsParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::MetricsRegistry::global().reset_values(); }
  void TearDown() override { obs::MetricsRegistry::global().reset_values(); }
};

RegularizedProblem make_problem(Rng& rng, std::size_t num_clouds,
                                std::size_t num_users) {
  RegularizedProblem p;
  p.num_clouds = num_clouds;
  p.num_users = num_users;
  p.demand.resize(num_users);
  for (auto& d : p.demand) d = static_cast<double>(rng.uniform_int(1, 5));
  const double total_demand = linalg::sum(p.demand);
  p.capacity.assign(num_clouds,
                    1.3 * total_demand / static_cast<double>(num_clouds));
  p.linear_cost.resize(num_clouds * num_users);
  for (auto& v : p.linear_cost) v = rng.uniform(0.5, 3.0);
  p.recon_price.resize(num_clouds);
  for (auto& v : p.recon_price) v = rng.uniform(0.0, 2.0);
  p.migration_price.resize(num_clouds);
  for (auto& v : p.migration_price) v = rng.uniform(0.5, 2.0);
  p.prev.assign(num_clouds * num_users, 0.0);
  for (std::size_t j = 0; j < num_users; ++j) {
    p.prev[p.index(rng.uniform_index(num_clouds), j)] = p.demand[j];
  }
  return p;
}

// The reproducible slice of a metrics snapshot after a solve trajectory.
struct SolverMetricTotals {
  std::uint64_t solves = 0;
  std::uint64_t newton_iterations = 0;
  std::uint64_t warm_starts = 0;
  std::uint64_t warm_fallbacks = 0;
  // Wall-clock stage timings: populated, but noise, so only checked > 0.
  double assembly_seconds = 0.0;
  double factor_seconds = 0.0;
};

// Runs a fixed 3-slot warm-started trajectory with the given thread count
// against a zeroed registry and returns the merged totals.
SolverMetricTotals run_trajectory(int threads) {
  obs::MetricsRegistry::global().reset_values();
  Rng rng(77);
  RegularizedOptions opt;
  opt.slot_threads = threads;
  opt.chunk_users = 64;
  opt.slot_min_users = 1;         // keep the pool engaged at 300 users
  opt.slot_oversubscribe = true;  // real workers even on few cores
  NewtonWorkspace ws;
  RegularizedProblem p = make_problem(rng, 5, 300);
  for (int t = 0; t < 3; ++t) {
    const RegularizedSolution sol = RegularizedSolver(opt).solve(p, ws);
    EXPECT_EQ(sol.status, SolveStatus::kOptimal) << threads << " threads";
    p.prev = sol.x;
    for (auto& v : p.linear_cost) v *= rng.uniform(0.9, 1.1);
  }
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  SolverMetricTotals totals;
  totals.solves = snap.counter("solver.solves");
  totals.newton_iterations = snap.counter("solver.newton_iterations");
  totals.warm_starts = snap.counter("solver.warm_starts");
  totals.warm_fallbacks = snap.counter("solver.warm_fallbacks");
  totals.assembly_seconds = snap.double_counter("solver.assembly_seconds");
  totals.factor_seconds = snap.double_counter("solver.factor_seconds");
  return totals;
}

TEST_F(ObsParallelTest, MetricTotalsBitIdenticalAcrossThreadCounts) {
  const SolverMetricTotals want = run_trajectory(1);
  ASSERT_EQ(want.solves, 3u);
  ASSERT_GT(want.newton_iterations, 0u);
  for (const int threads : {2, 7}) {
    const SolverMetricTotals got = run_trajectory(threads);
    EXPECT_EQ(got.solves, want.solves) << threads << " threads";
    EXPECT_EQ(got.newton_iterations, want.newton_iterations)
        << threads << " threads";
    EXPECT_EQ(got.warm_starts, want.warm_starts) << threads << " threads";
    EXPECT_EQ(got.warm_fallbacks, want.warm_fallbacks)
        << threads << " threads";
    EXPECT_GT(got.assembly_seconds, 0.0) << threads << " threads";
    EXPECT_GT(got.factor_seconds, 0.0) << threads << " threads";
  }
}

TEST_F(ObsParallelTest, ConcurrentRecordsFromThreadPool) {
  // Hammers the sharded cells and the trace cursor from a pool: TSan's
  // target. Totals are exact for the integer counters.
  obs::TraceOptions trace_options;
  trace_options.path.clear();
  trace_options.capacity = 512;  // less than the records: exercises dropping
  obs::TraceSession* session =
      obs::install_global_trace(std::move(trace_options));
  ASSERT_NE(session, nullptr);

  obs::Counter& counter =
      obs::MetricsRegistry::global().counter("test.pool_counter");
  obs::DoubleCounter& seconds =
      obs::MetricsRegistry::global().double_counter("test.pool_seconds");
  obs::Counter& sum = obs::MetricsRegistry::global().counter("test.pool_sum");
  constexpr std::size_t kTasks = 2000;
  ThreadPool::parallel_for(kTasks, 8, [&](std::size_t i) {
    ECA_TRACE_SPAN("pool_task");
    counter.add();
    seconds.add(0.5);
    sum.add(static_cast<std::uint64_t>(i % 97));
  });

  EXPECT_EQ(counter.total(), kTasks);
  EXPECT_EQ(seconds.total(), 0.5 * static_cast<double>(kTasks));
  std::uint64_t want_sum = 0;
  for (std::size_t i = 0; i < kTasks; ++i) want_sum += i % 97;
  EXPECT_EQ(sum.total(), want_sum);
  EXPECT_EQ(session->recorded() + session->dropped(), kTasks);
  EXPECT_EQ(session->recorded(), 512u);
  obs::drop_global_trace();
}

}  // namespace
}  // namespace eca::solve
