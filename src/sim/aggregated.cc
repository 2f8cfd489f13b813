#include "sim/aggregated.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "agg/user_classes.h"
#include "common/check.h"
#include "solve/regularized_solver.h"

namespace eca::sim {
namespace {

// Mirrors Simulator::run's dust rounding: solvers leave O(tolerance) dust in
// coordinates that are zero at the optimum, and rounding it off keeps the
// next slot's subproblem well-conditioned. Applied to the per-member values
// here, which is bitwise the same as the simulator's per-user pass: every
// member of a class carries the identical y/w value.
constexpr double kDust = 1e-9;

}  // namespace

AggregatedRunResult run_aggregated_online_approx(
    const model::Instance& instance, const algo::OnlineApproxOptions& options) {
  const std::string instance_error = instance.validate();
  ECA_CHECK(instance_error.empty(), instance_error);
  const auto start = std::chrono::steady_clock::now();

  const std::size_t kI = instance.num_clouds;
  const std::size_t kJ = instance.num_users;
  const std::size_t kT = instance.num_slots;
  const double ws = instance.weights.static_weight;
  const double wd = instance.weights.dynamic_weight;

  AggregatedRunResult result;
  result.algorithm = "online-approx";
  result.per_slot.reserve(kT);
  result.classes_per_slot.reserve(kT);

  obs::RunTelemetry& run = result.telemetry;
  run.algorithm = result.algorithm;
  run.num_clouds = kI;
  run.num_users = kJ;
  run.num_slots = kT;
  run.slots.reserve(kT);

  const agg::SubproblemParams params{
      options.eps1, options.eps2, options.enforce_capacity,
      options.use_reconfiguration_regularizer,
      options.use_migration_regularizer};
  const solve::RegularizedSolver solver(options.solver);
  solve::NewtonWorkspace workspace;

  // Previous-slot state, all in class space: the slot-(t-1) partition, the
  // dust-rounded per-member allocation (I × C_prev row-major) and one hash
  // per previous class summarizing its allocation column. No per-(cloud,
  // user) array exists anywhere in this loop.
  agg::ClassPartition prev_part;
  linalg::Vec prev_member_x;
  std::vector<std::uint64_t> prev_col_hash;

  model::CostBreakdown total;
  for (std::size_t t = 0; t < kT; ++t) {
    const bool has_prev = t > 0;
    const std::size_t kCPrev = prev_part.num_classes;
    const std::vector<std::size_t>& attachment = instance.attachment[t];
    const model::Vec& demand = instance.demand;

    // Partition users for slot t. The tag folds the *previous class's*
    // column hash instead of re-hashing I doubles per user (O(C_prev·I)
    // hashing + O(J) grouping); equality first short-circuits on "same
    // previous class" and only compares columns bitwise across different
    // previous classes (the re-merge case). The resulting partition is
    // identical to build_slot_classes on the expanded allocation — it
    // depends only on the equality relation, which is the same one: equal
    // (λ, l_{j,t}) and bitwise-equal previous columns.
    agg::ClassPartition part = agg::group_users(
        kJ,
        [&](std::size_t j) {
          std::uint64_t h = agg::detail::hash_combine(
              agg::detail::bits_of(demand[j]), attachment[j]);
          if (has_prev) {
            h = agg::detail::hash_combine(h,
                                          prev_col_hash[prev_part.class_of[j]]);
          }
          return h;
        },
        [&](std::size_t a, std::size_t b) {
          if (agg::detail::bits_of(demand[a]) !=
                  agg::detail::bits_of(demand[b]) ||
              attachment[a] != attachment[b]) {
            return false;
          }
          if (!has_prev) return true;
          const std::uint32_t ca = prev_part.class_of[a];
          const std::uint32_t cb = prev_part.class_of[b];
          if (ca == cb) return true;
          for (std::size_t i = 0; i < kI; ++i) {
            if (agg::detail::bits_of(prev_member_x[i * kCPrev + ca]) !=
                agg::detail::bits_of(prev_member_x[i * kCPrev + cb])) {
              return false;
            }
          }
          return true;
        });
    const std::size_t kC = part.num_classes;
    result.classes_per_slot.push_back(kC);
    result.max_classes = std::max(result.max_classes, kC);

    // Gather the per-member previous allocation of each slot-t class from
    // the slot-(t-1) class values (all zeros at t = 0).
    linalg::Vec member_prev(kI * kC, 0.0);
    if (has_prev) {
      for (std::size_t c = 0; c < kC; ++c) {
        const std::uint32_t pc = prev_part.class_of[part.representative[c]];
        for (std::size_t i = 0; i < kI; ++i) {
          member_prev[i * kC + c] = prev_member_x[i * kCPrev + pc];
        }
      }
    }

    const solve::RegularizedProblem p =
        agg::build_collapsed_subproblem(instance, t, part, member_prev, params);
    const solve::RegularizedSolution sol = solver.solve(p, workspace);
    ECA_CHECK(sol.status == solve::SolveStatus::kOptimal,
              "collapsed P2 subproblem failed at slot ", t, " (", kC,
              " classes)");

    // Per-member expansion x = y / w with the simulator's dust rounding,
    // exactly as the simulator path plays it.
    linalg::Vec member_x(kI * kC);
    for (std::size_t c = 0; c < kC; ++c) {
      const double inv_w = 1.0 / part.weight(c);
      for (std::size_t i = 0; i < kI; ++i) {
        double v = sol.x[i * kC + c] * inv_w;
        if (v < kDust) v = 0.0;
        member_x[i * kC + c] = v;
      }
    }

    const model::CostBreakdown slot =
        agg::class_slot_cost(instance, t, part, member_x, member_prev);
    total.operation += slot.operation;
    total.service_quality += slot.service_quality;
    total.reconfiguration += slot.reconfiguration;
    total.migration += slot.migration;
    result.per_slot.push_back(slot.total(instance.weights));
    result.max_violation =
        std::max(result.max_violation,
                 agg::class_slot_violation(instance, part, member_x));

    obs::SlotTelemetry& st = run.slots.emplace_back();
    st.slot = t;
    st.cost_operation = ws * slot.operation;
    st.cost_service_quality = ws * slot.service_quality;
    st.cost_reconfiguration = wd * slot.reconfiguration;
    st.cost_migration = wd * slot.migration;
    st.has_solve = true;
    st.solve = sol.stats;

    // Recompute the column hashes for slot t+1's tags (seeded from the
    // value bits only, so two classes holding bitwise-equal columns hash
    // equal — the property the tag function needs for re-merging).
    prev_col_hash.assign(kC, 0);
    for (std::size_t c = 0; c < kC; ++c) {
      std::uint64_t h = 0;
      for (std::size_t i = 0; i < kI; ++i) {
        h = agg::detail::hash_combine(h,
                                      agg::detail::bits_of(member_x[i * kC + c]));
      }
      prev_col_hash[c] = h;
    }
    prev_part = std::move(part);
    prev_member_x = std::move(member_x);
  }

  result.cost = total;
  result.weighted_total = total.total(instance.weights);
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  run.total_cost = result.weighted_total;
  return result;
}

}  // namespace eca::sim
