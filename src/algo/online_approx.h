// The paper's contribution: the regularization-based online algorithm
// (Section III-B). Each slot solves the convex program P2 — the slot's
// static cost plus relative-entropy regularizers that charge (smoothed)
// reconfiguration and migration against the previous slot's decision — and
// plays its optimum.
#pragma once

#include "agg/user_classes.h"
#include "algo/algorithm.h"
#include "algo/certificate.h"
#include "solve/regularized_solver.h"

namespace eca::algo {

struct OnlineApproxOptions {
  double eps1 = 1.0;  // ε1 of the aggregate (reconfiguration) regularizer
  double eps2 = 1.0;  // ε2 of the per-user (migration) regularizer
  // Keep the explicit capacity rows (see RegularizedProblem::enforce_capacity
  // for why this defaults to on).
  bool enforce_capacity = true;
  // Disable individual regularizers (ablation; both false => per-slot
  // static optimization in disguise).
  bool use_reconfiguration_regularizer = true;
  bool use_migration_regularizer = true;
  // Solve each slot's P2 over user equivalence classes instead of users:
  // partition on (λ_j, l_{j,t}, previous column), collapse through
  // y_c = w_c·x (agg/aggregate.h), solve the C-user problem and expand.
  // Mathematically identical (DESIGN.md §12) — costs match the per-user
  // path to solver tolerance, and with all-singleton classes the solve is
  // bit-identical — while the per-slot Newton work drops from O(I·J) to
  // O(I·C) plus an O(I·J) partition/expansion pass.
  bool aggregate_users = false;
  solve::RegularizedOptions solver;
};

class OnlineApprox final : public OnlineAlgorithm {
 public:
  explicit OnlineApprox(OnlineApproxOptions options = {})
      : options_(options) {}

  [[nodiscard]] std::string name() const override { return "online-approx"; }

  void reset(const Instance& instance) override;

  [[nodiscard]] Allocation decide(const Instance& instance, std::size_t t,
                                  const Allocation& previous) override;

  // Builds the slot-t subproblem (exposed for tests and diagnostics).
  [[nodiscard]] solve::RegularizedProblem build_subproblem(
      const Instance& instance, std::size_t t,
      const Allocation& previous) const;

  // Dual certificate accumulated over the decided slots (Section IV's
  // machinery); a valid OPT lower bound only in paper-pure mode
  // (enforce_capacity = false) — see certificate.h.
  [[nodiscard]] const DualCertificate& certificate() const {
    return certificate_;
  }

  // Solver telemetry of the most recent decide() (nullptr before the first).
  [[nodiscard]] const obs::SolveTelemetry* last_decide_telemetry()
      const override {
    return has_last_stats_ ? &last_stats_ : nullptr;
  }

  // Class count of the most recent aggregated decide() (= num_users when
  // aggregation is off or before the first decide).
  [[nodiscard]] std::size_t last_num_classes() const {
    return last_num_classes_;
  }

 private:
  OnlineApproxOptions options_;
  DualCertificate certificate_;
  std::size_t last_num_classes_ = 0;
  // Scratch reused across slots: every per-slot P2 has the same shape, so
  // after slot 0 the solver runs without heap allocation in its Newton loop.
  solve::NewtonWorkspace workspace_;
  obs::SolveTelemetry last_stats_;
  bool has_last_stats_ = false;
};

}  // namespace eca::algo
