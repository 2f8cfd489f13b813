// End-to-end guards for the five LP baselines (static-once, perf-opt,
// oper-opt, stat-opt, online-greedy) on Rome-taxi instances:
// * a fingerprint of every allocation bit, pinned so that an edit to the
//   slot-LP builders or the interior-point solver that moves any iterate
//   shows up here — and the same for online-approx, whose fingerprint pins
//   the P2 Newton loop;
// * two J=128, T=48 instances where the solver's soft tolerance used to
//   leak into results: on (hour 5, seed 17) online-greedy's slot-10 LP
//   stalls inside the soft tolerance and then fails at the numerical floor
//   (the solver must return the stalled iterate instead of aborting the
//   run); on (hour 1, seed 48) oper-opt's slot LPs, when they were still
//   warm-started from the previous slot, stopped at the soft tolerance
//   1.2e-5 off the capacity rows. Every slot LP is now solved cold, and the
//   instance stays as a feasibility guard.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>

#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace eca::sim {
namespace {

model::Instance taxi_instance(std::size_t users, std::size_t slots,
                              std::uint64_t seed, int hour) {
  ScenarioOptions options;
  options.num_users = users;
  options.num_slots = slots;
  options.workload.distribution = workload::Distribution::kPower;
  options.seed = seed;
  return make_rome_taxi_instance(options, hour);
}

std::vector<NamedFactory> lp_baselines() {
  std::vector<NamedFactory> out;
  for (NamedFactory& f : paper_algorithms(/*include_static_once=*/true)) {
    if (f.name != "online-approx") out.push_back(std::move(f));
  }
  return out;
}

// FNV-1a over the little-endian bytes of every allocation entry, slot by
// slot in storage order.
std::uint64_t fingerprint(const model::AllocationSequence& allocations) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const model::Allocation& a : allocations) {
    for (const double v : a.x) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      for (int k = 0; k < 8; ++k) {
        hash ^= (bits >> (8 * k)) & 0xffU;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

// The LP baselines were recorded with the dense-Cholesky interior-point
// solver, which the envelope factor must reproduce bit for bit;
// online-approx's entries pin every iterate of the P2 Newton loop. The
// perf-opt, oper-opt and stat-opt entries were recorded at commit 01b0324
// on its from-scratch path with the skeleton and the warm start both off
// (build_static_slot_lp, then a cold solve in a fresh IPM workspace); the
// skeleton path reproduces it bit for bit. The bits are those
// of the repository's optimized build: the `omp simd` reductions in
// linalg/vector_ops.h vectorize, and so reassociate their sums, only under
// optimization, so an -O0 build computes different (equally valid)
// trajectories.
TEST(LpBaselines, AllocationFingerprintsArePinned) {
#ifndef __OPTIMIZE__
  GTEST_SKIP() << "fingerprints are pinned for the optimized build";
#endif
  const std::map<std::string, std::uint64_t> want[6] = {
      {{"static-once", 0x0961c3761e9f6dcdULL},
       {"perf-opt", 0x5650de237f506ddcULL},
       {"oper-opt", 0x9759921167300d8eULL},
       {"stat-opt", 0xbde90698169e9833ULL},
       {"online-greedy", 0x4fddcb7198b6586aULL},
       {"online-approx", 0xdda005ce69b991fdULL}},
      {{"static-once", 0xd061c36adbc49785ULL},
       {"perf-opt", 0x99b38dc0ca062bcbULL},
       {"oper-opt", 0x50f526823b76d42fULL},
       {"stat-opt", 0x0ee4b4e68b7e7fddULL},
       {"online-greedy", 0x56313bf3e18d010cULL},
       {"online-approx", 0xaab4ca17d826e0dcULL}},
      {{"static-once", 0x6c1767f5d3742305ULL},
       {"perf-opt", 0x04675e639cc1af80ULL},
       {"oper-opt", 0x8b72ba135137c1d7ULL},
       {"stat-opt", 0x13fad882b6756afcULL},
       {"online-greedy", 0xf861485bc93856ecULL},
       {"online-approx", 0x6c3aaac3e5b6d500ULL}},
      {{"static-once", 0xed8009284a6658cdULL},
       {"perf-opt", 0x2bd552797a12b59eULL},
       {"oper-opt", 0xd3b1a8b203fa2889ULL},
       {"stat-opt", 0x43d151f33925aa64ULL},
       {"online-greedy", 0x2fde6b192f9cba33ULL},
       {"online-approx", 0xb739e208a34e6555ULL}},
      {{"static-once", 0xe793d435a81d38d5ULL},
       {"perf-opt", 0x97c33a73001acd7eULL},
       {"oper-opt", 0x8cdaa58075922838ULL},
       {"stat-opt", 0x78d3e0b975982a17ULL},
       {"online-greedy", 0x559c736aa92a3cbdULL},
       {"online-approx", 0x413e864d1b5a2754ULL}},
      {{"static-once", 0x5c284a5cd80caf85ULL},
       {"perf-opt", 0x2b2e8324e2a528e5ULL},
       {"oper-opt", 0x914a131cf6d4eaa0ULL},
       {"stat-opt", 0x385e7081f95024e5ULL},
       {"online-greedy", 0x2f91de00cdb20dedULL},
       {"online-approx", 0xb83e8f0e69650a20ULL}},
  };
  for (int hour = 0; hour < 6; ++hour) {
    const model::Instance instance = taxi_instance(32, 12, 1, hour);
    for (const NamedFactory& f :
         paper_algorithms(/*include_static_once=*/true)) {
      const auto algorithm = f.make();
      const SimulationResult r = Simulator::run(instance, *algorithm);
      EXPECT_EQ(fingerprint(r.allocations), want[hour].at(f.name))
          << f.name << " at hour " << hour;
    }
  }
}

void expect_lp_baselines_feasible(std::uint64_t seed, int hour) {
  const model::Instance instance = taxi_instance(128, 48, seed, hour);
  for (const NamedFactory& f : lp_baselines()) {
    const auto algorithm = f.make();
    const SimulationResult r = Simulator::run(instance, *algorithm);
    EXPECT_EQ(r.allocations.size(), 48U) << f.name;
    EXPECT_LE(r.max_violation, 1e-5) << f.name;
  }
}

TEST(LpBaselines, TaxiHour5Seed17CompletesFeasibly) {
  expect_lp_baselines_feasible(17, 5);
}

TEST(LpBaselines, TaxiHour1Seed48StaysFeasible) {
  expect_lp_baselines_feasible(48, 1);
}

}  // namespace
}  // namespace eca::sim
