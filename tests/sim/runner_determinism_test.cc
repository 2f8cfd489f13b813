// Regression for the parallel experiment runner's determinism guarantee:
// run_experiment merges per-task results from index-addressed buffers in
// repetition-major order, so any thread count must produce bit-identical
// statistics to the one-thread run. This binary carries the `tsan-smoke`
// ctest label and is meant to also run under -DECA_SANITIZE=thread.
#include <cstdlib>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "sim/runner.h"
#include "sim/scenario.h"

namespace eca::sim {
namespace {

model::Instance tiny(int rep) {
  ScenarioOptions options;
  options.num_users = 6;
  options.num_slots = 4;
  options.seed = 300 + static_cast<std::uint64_t>(rep);
  return make_random_walk_instance(options);
}

void expect_bit_identical_stats(const RunningStats& a, const RunningStats& b,
                                const std::string& label) {
  EXPECT_EQ(a.count(), b.count()) << label;
  EXPECT_EQ(a.mean(), b.mean()) << label;
  EXPECT_EQ(a.variance(), b.variance()) << label;
  EXPECT_EQ(a.min(), b.min()) << label;
  EXPECT_EQ(a.max(), b.max()) << label;
}

void expect_bit_identical(const ExperimentResult& a,
                          const ExperimentResult& b) {
  expect_bit_identical_stats(a.offline_cost, b.offline_cost, "offline_cost");
  ASSERT_EQ(a.algorithms.size(), b.algorithms.size());
  for (std::size_t i = 0; i < a.algorithms.size(); ++i) {
    const AlgorithmSummary& sa = a.algorithms[i];
    const AlgorithmSummary& sb = b.algorithms[i];
    EXPECT_EQ(sa.name, sb.name) << "per-algorithm ordering must match";
    expect_bit_identical_stats(sa.ratio, sb.ratio, sa.name + ".ratio");
    expect_bit_identical_stats(sa.absolute_cost, sb.absolute_cost,
                               sa.name + ".absolute_cost");
    EXPECT_EQ(sa.worst_violation, sb.worst_violation) << sa.name;
  }
}

TEST(RunnerDeterminism, FourThreadsBitIdenticalToOneThread) {
  ExperimentOptions serial;
  serial.repetitions = 3;
  serial.threads = 1;
  ExperimentOptions parallel = serial;
  parallel.threads = 4;
  const ExperimentResult one =
      run_experiment(tiny, paper_algorithms(), serial);
  const ExperimentResult four =
      run_experiment(tiny, paper_algorithms(), parallel);
  expect_bit_identical(one, four);
}

TEST(RunnerDeterminism, EnvKnobBitIdenticalToExplicitThreads) {
  ExperimentOptions serial;
  serial.repetitions = 2;
  serial.threads = 1;
  const ExperimentResult one =
      run_experiment(tiny, paper_algorithms(), serial);
  ::setenv("ECA_THREADS", "4", 1);
  ExperimentOptions from_env = serial;
  from_env.threads = 0;  // resolve from ECA_THREADS
  const ExperimentResult four =
      run_experiment(tiny, paper_algorithms(), from_env);
  ::unsetenv("ECA_THREADS");
  expect_bit_identical(one, four);
}

TEST(RunnerDeterminism, ResolveThreadsPrecedence) {
  ::setenv("ECA_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::resolve_threads(0), 3u);  // env wins over hardware
  EXPECT_EQ(ThreadPool::resolve_threads(2), 2u);  // explicit wins over env
  ::unsetenv("ECA_THREADS");
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);  // hardware fallback
}

}  // namespace
}  // namespace eca::sim
