// The differential oracle of the property harness (DESIGN.md §13).
//
// One oracle run takes a Scenario, materializes its instance and pushes it
// through every solve path the codebase claims is equivalent:
//
//   L0  dense / cold / serial OnlineApprox      (the reference leg)
//   L1  warm-started                            (≈ L0 within rel_tol)
//   L3  user-class aggregated                   (≈ L0 within rel_tol)
//   L4  slot-parallel (N threads)               (bitwise == its serial twin)
//   L5  offline IPM vs PDHG on the horizon LP   (≈ each other; each a lower
//                                                bound on every online leg)
//
// The number L2 stays unused (it named a deleted solve path) so leg names
// in recorded replays and summaries keep their meaning.
//
// plus the per-slot invariants on the reference trajectory: P2 KKT
// residuals and primal feasibility via algo::check_certificate, the
// cost-accounting identity (weighted split sums to the scored total, the
// per-slot series sums to the run total), partition well-formedness for the
// aggregated leg, and — in paper-pure mode (enforce_capacity = false) —
// the Lemma 2 dual certificate lower-bounding the offline optimum.
//
// Every check failure is recorded as a human-readable violation string; the
// report is data, so the harness can shrink on it and tests can assert on
// exact counts.
#pragma once

#include <string>
#include <vector>

#include "check/scenario.h"

namespace eca::check {

struct OracleOptions {
  double feas_tol = 1e-5;  // allocation feasibility (repo-wide level)
  // Relative agreement between differential legs and between the offline
  // solvers; also the slack on the offline <= online direction. Dominated
  // by the PDHG tolerance (5e-4 on the objective), not by P2 numerics.
  double rel_tol = 5e-3;
  double kkt_tol = 1e-4;  // per-slot certificate tolerance (see certificate.h)
  // Objective agreement for the first-order PDHG leg, looser than rel_tol:
  // PDHG terminates on KKT residuals, so its objective gap is only loosely
  // controlled on ill-conditioned horizon LPs.
  double pdhg_rel_tol = 2e-2;
  bool run_offline = true;
  // Offline legs are skipped above this I*J*T budget (the horizon LP is
  // dense-IPM territory only for small shapes).
  std::size_t max_offline_cells = 2048;
  int threads_leg = 4;  // worker count of the bitwise slot-parallel leg
  // Fault plan installed (and counters reset) at the start of every oracle
  // run, "" = none. Lets a forced failure reproduce deterministically
  // across shrink re-evaluations — see install_fault_plan.
  std::string fault_plan;
};

// One differential leg's scored outcome.
struct LegResult {
  std::string name;
  double cost = 0.0;           // weighted P0 total
  double max_violation = 0.0;  // feasibility of the produced sequence
};

struct OracleReport {
  std::vector<std::string> violations;  // empty = scenario verified
  std::vector<LegResult> legs;
  double online_cost = 0.0;        // reference leg L0
  double offline_cost = 0.0;       // IPM objective (0 when skipped)
  double certificate_bound = 0.0;  // Lemma 2 bound (paper-pure mode only)
  double worst_kkt = 0.0;          // max KKT residual across slots
  double worst_infeasibility = 0.0;
  bool offline_ran = false;
  [[nodiscard]] bool ok() const { return violations.empty(); }
  // The headline defect for logs and shrink progress ("" when ok).
  [[nodiscard]] std::string first_violation() const {
    return violations.empty() ? std::string() : violations.front();
  }
};

OracleReport run_oracle(const Scenario& scenario,
                        const OracleOptions& options = {});

}  // namespace eca::check
