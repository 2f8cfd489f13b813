// Verifies the zero-allocation guarantee of the interior-point LP solver's
// workspace path: with a warmed IpmWorkspace, the number of heap allocations
// per solve must be independent of how many IPM iterations run, and a
// steady-state resolve through solve_into() (workspace + reused solution
// buffers) must not allocate at all. A counting global operator new makes
// both checks exact.
//
// This TU replaces the global allocator, so it gets its own test binary.
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "solve/ipm_lp.h"
#include "lp_test_util.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eca::solve {
namespace {

using testing::make_random_box_lp;

LpProblem sample_lp() {
  Rng rng(424242);
  return make_random_box_lp(rng, 12, 5, 4);
}

struct SolveProfile {
  std::size_t allocations;
  int iterations;
};

SolveProfile profile(const LpProblem& lp, const IpmOptions& options,
                     IpmWorkspace& ws, LpSolution& sol) {
  g_alloc_count.store(0);
  g_counting.store(true);
  InteriorPointLp(options).solve_into(lp, ws, sol);
  g_counting.store(false);
  EXPECT_EQ(sol.status, SolveStatus::kOptimal);
  return {g_alloc_count.load(), sol.iterations};
}

TEST(IpmAlloc, IterationLoopIsAllocationFree) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "allocation counting is unreliable under sanitizers";
#endif
  const LpProblem lp = sample_lp();
  IpmOptions loose;
  loose.tolerance = 1e-2;
  IpmOptions tight;
  tight.tolerance = 1e-10;

  IpmWorkspace ws;
  LpSolution sol;
  // Warm the workspace and the solution buffers so one-time sizing
  // allocations are out of the picture.
  InteriorPointLp(tight).solve_into(lp, ws, sol);

  const SolveProfile few = profile(lp, loose, ws, sol);
  const SolveProfile many = profile(lp, tight, ws, sol);
  // The comparison is only meaningful if the tolerances actually change the
  // iteration count.
  ASSERT_GT(many.iterations, few.iterations);
  // Identical allocation totals across different iteration counts ⇒ zero
  // allocations inside the iteration loop.
  EXPECT_EQ(few.allocations, many.allocations);
}

TEST(IpmAlloc, SteadyStateResolveIsAllocationFree) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "allocation counting is unreliable under sanitizers";
#endif
  // The stronger guarantee the slot loop relies on: once the workspace and
  // the solution buffers have seen the LP shape, a full resolve (standard
  // form rebuild + all iterations + solution expansion) allocates nothing.
  const LpProblem lp = sample_lp();
  IpmWorkspace ws;
  LpSolution sol;
  InteriorPointLp solver;
  solver.solve_into(lp, ws, sol);
  solver.solve_into(lp, ws, sol);

  g_alloc_count.store(0);
  g_counting.store(true);
  solver.solve_into(lp, ws, sol);
  g_counting.store(false);
  EXPECT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(g_alloc_count.load(), 0u);
}

TEST(IpmAlloc, MetricsEnabledKeepsIterationIndependence) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "allocation counting is unreliable under sanitizers";
#endif
  const LpProblem lp = sample_lp();
  IpmOptions loose;
  loose.tolerance = 1e-2;
  IpmOptions tight;
  tight.tolerance = 1e-10;

  IpmWorkspace ws;
  LpSolution sol;
  // Warm-up registers the metric handle statics (one-time allocation).
  InteriorPointLp(tight).solve_into(lp, ws, sol);

  const SolveProfile few = profile(lp, loose, ws, sol);
  const SolveProfile many = profile(lp, tight, ws, sol);
  ASSERT_GT(many.iterations, few.iterations);
  EXPECT_EQ(few.allocations, many.allocations);
}

}  // namespace
}  // namespace eca::solve
