// Symmetry-collapsed solves over user classes (DESIGN.md §12).
//
// Given a ClassPartition whose members are bitwise-identical in every
// coefficient a program reads, the per-user program collapses exactly onto
// class aggregates through the substitution y_{i,c} = w_c · x_{i,c}:
//
//   * linear costs are per-unit, so y keeps the member's coefficient;
//   * demand rows become Σ_i y_{i,c} ≥ w_c λ_c;
//   * aggregate quantities (X_i, capacity/complement rows, the
//     reconfiguration regularizer) are untouched — Σ_j x = Σ_c y;
//   * P2's per-user migration regularizer collapses with ε2_c = w_c ε2:
//       w [ (x+ε2) ln((x+ε2)/(xp+ε2)) − x ]
//         = (y+ε2_c) ln((y+ε2_c)/(yp+ε2_c)) − y,
//     and τ_c = ln(1 + w λ / (w ε2)) stays the per-member τ — which is why
//     RegularizedProblem carries the per-user eps2_user override.
//
// The collapsed optimum therefore corresponds 1:1 to the symmetric per-user
// optimum: x = y / w, and on the dual side θ_j = θ'_c and δ_{i,j} = δ'_{i,c}
// (the collapsed stationarity equation is the per-member one verbatim).
// Singleton classes (w = 1) leave every coefficient bitwise unchanged, so
// the collapsed solve degrades gracefully to today's per-user behaviour.
#pragma once

#include "agg/user_classes.h"
#include "model/costs.h"
#include "model/instance.h"
#include "solve/regularized_solver.h"

namespace eca::agg {

using linalg::Vec;

// --- P2 (per-slot regularized subproblem) -----------------------------------

// The P2 shape knobs of OnlineApproxOptions that the collapsed builder
// needs (agg sits below algo, so it cannot see that struct).
struct SubproblemParams {
  double eps1 = 1.0;
  double eps2 = 1.0;
  bool enforce_capacity = true;
  bool use_reconfiguration_regularizer = true;
  bool use_migration_regularizer = true;
};

// Collapses a fully-built per-user P2 onto `part`'s classes. Members of a
// class MUST be bitwise-identical in linear_cost, demand and prev columns
// (guaranteed by build_slot_classes); only the representative's column is
// read.
solve::RegularizedProblem collapse_problem(const solve::RegularizedProblem& full,
                                           const ClassPartition& part);

// Builds the collapsed slot-t P2 directly from the instance in O(I·C) —
// bitwise equal to collapse_problem(OnlineApprox::build_subproblem(...))
// without materializing the O(I·J) per-user problem. `member_prev` holds
// the per-member previous allocation of each class, I×C row-major (pass an
// all-zero vector at t = 0).
solve::RegularizedProblem build_collapsed_subproblem(
    const model::Instance& instance, std::size_t t, const ClassPartition& part,
    const Vec& member_prev, const SubproblemParams& params);

// Expands a collapsed P2 solution back to per-user space: x_{i,j} =
// y_{i,c(j)} / w_c, θ_j = θ'_{c(j)}, δ_{i,j} = δ'_{i,c(j)}; ρ/κ and the
// objective value (already the per-user total) are copied through.
solve::RegularizedSolution expand_solution(
    const solve::RegularizedSolution& collapsed, const ClassPartition& part,
    std::size_t num_clouds);

// --- Class-weighted scoring -------------------------------------------------

// Slot-t P0 cost split evaluated entirely in class space — no I×J
// materialization. `member_x` / `member_prev` are I×C row-major per-member
// values under the slot-t partition (member_prev all zeros at t = 0).
// Exact because the slot-t partition keys on the previous column: per-user
// migration flows are class-constant, and every other term is linear in
// class totals. Matches model::slot_cost on the expanded allocations up to
// summation-order roundoff (≪ 1e-9 relative; pinned by tests/agg).
model::CostBreakdown class_slot_cost(const model::Instance& instance,
                                     std::size_t t, const ClassPartition& part,
                                     const Vec& member_x,
                                     const Vec& member_prev);

// Max violation of the slot's P0 constraints (demand, capacity,
// non-negativity) of the expanded allocation, computed in class space;
// mirrors model::allocation_violation.
double class_slot_violation(const model::Instance& instance,
                            const ClassPartition& part, const Vec& member_x);

}  // namespace eca::agg
