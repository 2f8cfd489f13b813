// Determinism contract of the chunk-parallel Newton assembly in
// RegularizedSolver: the solve must be bit-identical for every
// slot_threads value, because workers only fill chunk-indexed partial
// buffers (or chunk-owned per-user slices) and the reduction happens
// serially in chunk order on the calling thread. The test solves the same
// problems with slot_threads ∈ {1, 2, 7, hardware_concurrency} and compares
// every output EXACTLY (EXPECT_EQ on doubles, no tolerance).
//
// Own binary, labelled tsan-smoke: a -DECA_SANITIZE=thread build runs
// exactly this test (plus the runner determinism test) under TSan to prove
// the worker writes really are disjoint.
#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "solve/regularized_solver.h"

namespace eca::solve {
namespace {

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

std::vector<int> thread_counts() {
  std::vector<int> counts{1, 2, 7};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 1) counts.push_back(static_cast<int>(hw));
  return counts;
}

void expect_identical(const RegularizedSolution& got,
                      const RegularizedSolution& want, int threads) {
  ASSERT_EQ(got.status, want.status) << threads << " threads";
  EXPECT_EQ(got.newton_iterations, want.newton_iterations)
      << threads << " threads";
  EXPECT_EQ(got.warm_started, want.warm_started) << threads << " threads";
  EXPECT_EQ(got.objective_value, want.objective_value) << threads
                                                       << " threads";
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t i = 0; i < want.x.size(); ++i) {
    ASSERT_EQ(got.x[i], want.x[i]) << threads << " threads, x[" << i << "]";
  }
  for (std::size_t i = 0; i < want.delta.size(); ++i) {
    ASSERT_EQ(got.delta[i], want.delta[i])
        << threads << " threads, delta[" << i << "]";
  }
  for (std::size_t j = 0; j < want.theta.size(); ++j) {
    ASSERT_EQ(got.theta[j], want.theta[j])
        << threads << " threads, theta[" << j << "]";
  }
  for (std::size_t i = 0; i < want.rho.size(); ++i) {
    ASSERT_EQ(got.rho[i], want.rho[i])
        << threads << " threads, rho[" << i << "]";
  }
  for (std::size_t i = 0; i < want.kappa.size(); ++i) {
    ASSERT_EQ(got.kappa[i], want.kappa[i])
        << threads << " threads, kappa[" << i << "]";
  }
}

TEST(SlotParallel, SingleSolveBitIdenticalAcrossThreadCounts) {
  Rng rng(101);
  // 500 users / 128-user chunks = 4 chunks; also run a 32-user chunk
  // configuration for a many-chunk partition of the same problem.
  const RegularizedProblem p = make_problem(rng, 6, 500);
  for (const int chunk_users : {128, 32}) {
    RegularizedOptions base;
    base.chunk_users = chunk_users;
    base.slot_threads = 1;
    // Disable the adaptive min-work floor and the hardware-concurrency
    // cap: at 500 users the default would collapse every configuration to
    // serial (and cap 7 workers to the core count) and the test would
    // prove nothing about the parallel assembly.
    base.slot_min_users = 1;
    base.slot_oversubscribe = true;
    NewtonWorkspace ws_base;
    const RegularizedSolution want = RegularizedSolver(base).solve(p, ws_base);
    ASSERT_EQ(want.status, SolveStatus::kOptimal);
    for (const int threads : thread_counts()) {
      RegularizedOptions opt = base;
      opt.slot_threads = threads;
      NewtonWorkspace ws;
      const RegularizedSolution got = RegularizedSolver(opt).solve(p, ws);
      expect_identical(got, want, threads);
    }
  }
}

TEST(SlotParallel, WarmStartedTrajectoryBitIdenticalAcrossThreadCounts) {
  // Warm starting carries duals through the workspace across slots; the
  // carried state must be thread-count independent too. Three-slot
  // trajectory where each slot's prev is the previous solution.
  constexpr std::size_t kSlots = 3;
  const auto run = [&](int threads) {
    Rng rng(202);
    RegularizedOptions opt;
    opt.slot_threads = threads;
    opt.chunk_users = 64;
    opt.slot_min_users = 1;        // keep the pool engaged at 300 users
    opt.slot_oversubscribe = true;  // real workers even on few cores
    NewtonWorkspace ws;
    std::vector<RegularizedSolution> sols;
    RegularizedProblem p = make_problem(rng, 5, 300);
    for (std::size_t t = 0; t < kSlots; ++t) {
      sols.push_back(RegularizedSolver(opt).solve(p, ws));
      p.prev = sols.back().x;
      for (auto& v : p.linear_cost) v *= rng.uniform(0.9, 1.1);
    }
    return sols;
  };
  const std::vector<RegularizedSolution> want = run(1);
  ASSERT_TRUE(want[kSlots - 1].warm_started);
  for (const int threads : thread_counts()) {
    const std::vector<RegularizedSolution> got = run(threads);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t t = 0; t < want.size(); ++t) {
      expect_identical(got[t], want[t], threads);
    }
  }
}

}  // namespace
}  // namespace eca::solve
