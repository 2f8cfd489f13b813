#include "check/oracle.h"

#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "agg/user_classes.h"
#include "algo/certificate.h"
#include "algo/offline.h"
#include "algo/online_approx.h"
#include "common/fault.h"
#include "model/costs.h"
#include "sim/simulator.h"

namespace eca::check {

namespace {

void violate(OracleReport& report, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  report.violations.emplace_back(buf);
}

// Base OnlineApprox configuration of the reference leg: dense, cold,
// serial. Every differential leg perturbs exactly one axis of this.
algo::OnlineApproxOptions base_options(const Scenario& s) {
  algo::OnlineApproxOptions o;
  o.eps1 = s.eps1;
  o.eps2 = s.eps2;
  o.enforce_capacity = s.enforce_capacity;
  o.solver.warm_start = false;
  o.solver.slot_threads = 1;
  return o;
}

sim::SimulationResult run_leg(const model::Instance& instance,
                              const algo::OnlineApproxOptions& options) {
  algo::OnlineApprox algorithm(options);
  return sim::Simulator::run(instance, algorithm);
}

// Feasibility of a sequence against demand and non-negativity only. The
// paper-pure mode (no explicit capacity rows) relies on Theorem 1 for
// capacity, which the repo documents as non-binding under large dynamic
// prices — so capacity violations there are a model property, not an
// oracle violation, and the feasibility gate must exclude them.
double violation_without_capacity(const model::Instance& instance,
                                  const model::AllocationSequence& seq) {
  double worst = 0.0;
  for (const model::Allocation& alloc : seq) {
    for (const double v : alloc.x) worst = std::max(worst, -v);
    for (std::size_t j = 0; j < instance.num_users; ++j) {
      worst = std::max(worst, instance.demand[j] - alloc.user_total(j));
    }
  }
  return worst;
}

// Scores a leg, records it, and checks the invariants every leg must obey:
// feasibility and the cost-accounting identity (split total == scored
// weighted total, per-slot series sums to the run total).
void check_leg(OracleReport& report, const model::Instance& instance,
               const sim::SimulationResult& result, const char* name,
               bool enforce_capacity, const OracleOptions& opts) {
  LegResult leg;
  leg.name = name;
  leg.cost = result.weighted_total;
  leg.max_violation = result.max_violation;
  report.legs.push_back(leg);
  const double gated_violation =
      enforce_capacity ? result.max_violation
                       : violation_without_capacity(instance,
                                                    result.allocations);
  report.worst_infeasibility =
      std::max(report.worst_infeasibility, gated_violation);
  if (gated_violation > opts.feas_tol) {
    violate(report, "%s: infeasible allocation, violation %.6g > %.6g", name,
            gated_violation, opts.feas_tol);
  }
  const double scale = 1.0 + std::abs(result.weighted_total);
  const double split_total = result.cost.total(instance.weights);
  if (std::abs(split_total - result.weighted_total) > 1e-8 * scale) {
    violate(report, "%s: cost split %.17g != scored total %.17g", name,
            split_total, result.weighted_total);
  }
  double per_slot_sum = 0.0;
  for (const double v : result.per_slot) per_slot_sum += v;
  if (std::abs(per_slot_sum - result.weighted_total) > 1e-8 * scale) {
    violate(report, "%s: per-slot series sums to %.17g != total %.17g", name,
            per_slot_sum, result.weighted_total);
  }
}

void check_agreement(OracleReport& report, const char* name, double cost,
                     double reference, double rel_tol) {
  const double tol = rel_tol * (1.0 + std::abs(reference));
  if (std::abs(cost - reference) > tol) {
    violate(report, "%s: cost %.10g disagrees with reference %.10g (tol %.3g)",
            name, cost, reference, tol);
  }
}

bool bitwise_equal(const model::AllocationSequence& a,
                   const model::AllocationSequence& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t].x.size() != b[t].x.size()) return false;
    for (std::size_t k = 0; k < a[t].x.size(); ++k) {
      if (std::bit_cast<std::uint64_t>(a[t].x[k]) !=
          std::bit_cast<std::uint64_t>(b[t].x[k])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

OracleReport run_oracle(const Scenario& scenario,
                        const OracleOptions& opts) {
  OracleReport report;
  const std::string scenario_problem = validate(scenario);
  if (!scenario_problem.empty()) {
    violate(report, "scenario invalid: %s", scenario_problem.c_str());
    return report;
  }
  // A forced-fault run resets the counters per evaluation so the same plan
  // fires identically across shrink re-runs; cleared again on exit so the
  // fault cannot leak into an unrelated evaluation.
  const bool faulted = !opts.fault_plan.empty();
  if (faulted) install_fault_plan(opts.fault_plan.c_str());

  const model::Instance instance = materialize(scenario);

  // --- L0: the dense / cold / serial reference -----------------------------
  const algo::OnlineApproxOptions base = base_options(scenario);
  const sim::SimulationResult reference = run_leg(instance, base);
  check_leg(report, instance, reference, "L0:dense-cold-serial",
            scenario.enforce_capacity, opts);
  report.online_cost = reference.weighted_total;

  // --- Per-slot certificate sweep of the reference trajectory --------------
  // Re-drives the same cold solves by hand to get the duals, then verifies
  // each slot with the structured certificate checker; in paper-pure mode
  // the same sweep accumulates the Lemma 2 dual bound.
  {
    algo::OnlineApprox ref_algo(base);
    solve::RegularizedSolver solver(base.solver);
    solve::NewtonWorkspace workspace;
    algo::DualCertificate certificate;
    model::Allocation prev(instance.num_clouds, instance.num_users);
    for (std::size_t t = 0; t < instance.num_slots; ++t) {
      const solve::RegularizedProblem problem =
          ref_algo.build_subproblem(instance, t, prev);
      const solve::RegularizedSolution solution =
          solver.solve(problem, workspace);
      const algo::CertificateCheck cert_check =
          algo::check_certificate(problem, solution, opts.kkt_tol);
      report.worst_kkt =
          std::max(report.worst_kkt, cert_check.max_kkt_residual);
      report.worst_infeasibility =
          std::max(report.worst_infeasibility, cert_check.worst_infeasibility);
      if (!cert_check.ok()) {
        violate(report, "slot %zu certificate: %s", t,
                cert_check.violations.front().c_str());
      }
      if (!scenario.enforce_capacity) {
        certificate.add_slot(instance, t, solution);
      }
      prev.x = solution.x;
    }
    if (!scenario.enforce_capacity) {
      report.certificate_bound = certificate.opt_lower_bound(instance);
    }
  }

  // --- L1: warm-started ----------------------------------------------------
  {
    algo::OnlineApproxOptions o = base;
    o.solver.warm_start = true;
    const sim::SimulationResult warm = run_leg(instance, o);
    check_leg(report, instance, warm, "L1:warm",
              scenario.enforce_capacity, opts);
    check_agreement(report, "L1:warm", warm.weighted_total,
                    reference.weighted_total, opts.rel_tol);
  }

  // --- L3: user-class aggregation ------------------------------------------
  {
    const std::string part_problem = agg::validate_partition(
        agg::build_slot_classes(instance, 0, model::Allocation()));
    if (!part_problem.empty()) {
      violate(report, "slot-0 partition malformed: %s", part_problem.c_str());
    }
    algo::OnlineApproxOptions o = base;
    o.aggregate_users = true;
    const sim::SimulationResult aggregated = run_leg(instance, o);
    check_leg(report, instance, aggregated, "L3:aggregated",
              scenario.enforce_capacity, opts);
    check_agreement(report, "L3:aggregated", aggregated.weighted_total,
                    reference.weighted_total, opts.rel_tol);
  }

  // --- L4: slot-parallel, bitwise against its serial twin ------------------
  // Small chunks + a floor of one user force the pool to engage even on the
  // tiny harness shapes; the chunk partition (and reduction order) is the
  // same for both twins, which is exactly the solver's bit-identity claim.
  {
    algo::OnlineApproxOptions serial_twin = base;
    serial_twin.solver.warm_start = true;
    serial_twin.solver.chunk_users = 2;
    serial_twin.solver.slot_min_users = 1;
    serial_twin.solver.slot_threads = 1;
    algo::OnlineApproxOptions parallel_twin = serial_twin;
    parallel_twin.solver.slot_threads = opts.threads_leg;
    parallel_twin.solver.slot_oversubscribe = true;
    const sim::SimulationResult serial = run_leg(instance, serial_twin);
    const sim::SimulationResult parallel = run_leg(instance, parallel_twin);
    check_leg(report, instance, parallel, "L4:slot-parallel",
              scenario.enforce_capacity, opts);
    if (!bitwise_equal(serial.allocations, parallel.allocations)) {
      violate(report,
              "L4:slot-parallel: %d-thread allocations are not bitwise equal "
              "to the serial twin",
              opts.threads_leg);
    }
  }

  // --- L5: offline IPM vs PDHG, and the online-vs-offline direction --------
  const std::size_t cells =
      instance.num_clouds * instance.num_users * instance.num_slots;
  if (opts.run_offline && cells <= opts.max_offline_cells) {
    report.offline_ran = true;
    algo::OfflineOptions ipm;
    ipm.solver = algo::OfflineOptions::Solver::kInteriorPoint;
    const algo::OfflineResult off_ipm = algo::solve_offline(instance, ipm);
    if (off_ipm.status != solve::SolveStatus::kOptimal) {
      violate(report, "offline IPM did not converge: %s",
              solve::to_string(off_ipm.status));
    } else {
      const double off_violation =
          model::max_violation(instance, off_ipm.allocations);
      if (off_violation > opts.feas_tol) {
        violate(report, "offline IPM allocations infeasible: %.6g",
                off_violation);
      }
      // Cost-accounting identity at the horizon level: the scored P0 cost
      // of the LP's allocations must equal its objective plus the constant
      // access-delay term the LP omits (the additive Σ_t Σ_j d(j, l_{j,t})
      // that no decision variable touches — same convention as the runner
      // and the dual certificate).
      double access_constant = 0.0;
      for (std::size_t t = 0; t < instance.num_slots; ++t) {
        for (std::size_t j = 0; j < instance.num_users; ++j) {
          access_constant += instance.access_delay[t][j];
        }
      }
      access_constant *= instance.weights.static_weight;
      const sim::SimulationResult scored = sim::Simulator::score(
          instance, "offline", off_ipm.allocations);
      check_agreement(report, "offline-rescore", scored.weighted_total,
                      off_ipm.objective_value + access_constant,
                      opts.rel_tol);
      // The full-cost offline optimum — what the runner uses as the
      // competitive-ratio denominator — lower-bounds every online leg.
      const double offline_full = scored.weighted_total;
      report.offline_cost = offline_full;
      for (const LegResult& leg : report.legs) {
        // A leg that (legitimately, in paper-pure mode) violates capacity
        // is not a feasible horizon solution, so the offline optimum need
        // not lower-bound it.
        if (leg.max_violation > opts.feas_tol) continue;
        const double slack = opts.rel_tol * (1.0 + std::abs(offline_full));
        if (offline_full > leg.cost + slack) {
          violate(report, "%s: cost %.10g beats the offline optimum %.10g",
                  leg.name.c_str(), leg.cost, offline_full);
        }
      }
      // Lemma 2: the dual certificate lower-bounds OPT (paper-pure only).
      if (!scenario.enforce_capacity &&
          report.certificate_bound >
              offline_full * (1.0 + opts.rel_tol) + opts.rel_tol) {
        violate(report, "certificate bound %.10g exceeds offline OPT %.10g",
                report.certificate_bound, offline_full);
      }

      algo::OfflineOptions pdhg = ipm;
      pdhg.solver = algo::OfflineOptions::Solver::kPdhg;
      pdhg.pdhg_tolerance = 1e-4;  // tiny LPs: buy accuracy, it is cheap
      const algo::OfflineResult off_pdhg = algo::solve_offline(instance, pdhg);
      if (off_pdhg.status != solve::SolveStatus::kOptimal) {
        violate(report, "offline PDHG did not converge: %s",
                solve::to_string(off_pdhg.status));
      } else {
        check_agreement(report, "offline-pdhg", off_pdhg.objective_value,
                        off_ipm.objective_value, opts.pdhg_rel_tol);
      }
    }
  }

  if (faulted) install_fault_plan(nullptr);
  return report;
}

}  // namespace eca::check
