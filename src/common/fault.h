// Deterministic solver fault injection (DESIGN.md §13).
//
// Every documented fallback path in the solve stack — P2 warm → cold start,
// skeleton → rebuild, baseline LP-failure recovery — is
// only exercised when numerics actually go wrong, which hand-written tests
// cannot arrange on demand. The fault seam makes each failure reachable on
// purpose: a *plan* names a fault site and the 1-based occurrence at which
// it fires, exactly once, on the thread that drives the solve. Because the
// sites are all driving-thread code and occurrences are counted from
// process start (or from install_fault_plan in tests), a plan is fully
// deterministic: the same binary, inputs and plan always fault the same
// solve at the same step.
//
// Plan grammar (ECA_FAULT, or install_fault_plan in tests):
//
//   plan  := term ("," term)*
//   term  := site | site "@" occurrence        // bare site means "@1"
//   site  := schur_singular | newton_nan | iter_cap | warm_reject
//          | ipm_fail | pdhg_fail | lp_fail
//
// e.g. ECA_FAULT="lp_fail@3" fails the third baseline LP post-solve check
// (slot 2 of a serial single-algorithm run), ECA_FAULT="newton_nan@5"
// poisons the fifth Newton direction computed by the process. A malformed
// plan is a fatal configuration error (exit(2)), like every other ECA_*
// knob. At most one occurrence can be scheduled per site; schedule two
// sites to compose faults.
//
// When no plan is installed the per-call cost is one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>

namespace eca {

enum class FaultSite : int {
  // One Schur-complement LU factorization reports "singular" even though it
  // succeeded, forcing the Newton loop's best-iterate bailout. Hits count
  // successful factorizations (a genuinely singular system needs no help).
  kSchurSingular = 0,
  // One Newton direction gets a quiet NaN in its first component after
  // iterative refinement; the iteration's non-finite guard must catch it.
  kNewtonNan,
  // One RegularizedSolver solve runs with its Newton iteration budget
  // collapsed to a single iteration (iteration-cap exhaustion).
  kIterCap,
  // One usable warm-start point is rejected, forcing the cold start.
  kWarmReject,
  // One interior-point LP solve reports kNumericalError after solving.
  kIpmFail,
  // One PDHG LP solve reports kIterationLimit after solving.
  kPdhgFail,
  // One baseline LP post-solve check treats its solution as failed,
  // exercising the log + count + rebuild-and-cold-resolve recovery.
  kLpFail,
  kCount,
};

namespace detail {
// False only once it is known that no plan is scheduled; starts true so the
// first call falls into the slow path and parses ECA_FAULT.
extern std::atomic<bool> g_fault_maybe;
bool fault_fire_slow(FaultSite site);
}  // namespace detail

// Counts one hit of `site` and returns true exactly when the installed plan
// schedules this occurrence. Without a plan: no counting, near-zero cost.
inline bool fault_fire(FaultSite site) {
  if (!detail::g_fault_maybe.load(std::memory_order_relaxed)) [[likely]] {
    return false;
  }
  return detail::fault_fire_slow(site);
}

// Parses and installs the ECA_FAULT plan (exit(2) on a malformed value; a
// no-op when the variable is unset). Called lazily by the first fault_fire;
// exposed so death tests can trigger the validation directly.
void init_faults_from_env();

// Test hook: installs `plan` programmatically (same grammar as ECA_FAULT;
// nullptr or "" clears), resets all hit/fired counters and suppresses the
// env-driven initialization from then on. Not thread-safe against
// concurrent fault_fire calls — install between solves.
void install_fault_plan(const char* plan);

// How many times `site` has fired (0 or 1 per installed plan).
std::uint64_t fault_fired_count(FaultSite site);

// Stable site name ("schur_singular", ...), for logs and tests.
const char* fault_site_name(FaultSite site);

}  // namespace eca
