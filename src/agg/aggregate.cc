#include "agg/aggregate.h"

#include <algorithm>

#include "common/check.h"

namespace eca::agg {
namespace {

inline double positive_part(double v) { return v > 0.0 ? v : 0.0; }

void check_partition(const ClassPartition& part, std::size_t num_users) {
  ECA_CHECK(part.num_users == num_users, "partition covers ", part.num_users,
            " users, expected ", num_users);
  ECA_CHECK(part.num_classes > 0 || num_users == 0);
}

}  // namespace

solve::RegularizedProblem collapse_problem(
    const solve::RegularizedProblem& full, const ClassPartition& part) {
  check_partition(part, full.num_users);
  const std::size_t kI = full.num_clouds;
  const std::size_t kC = part.num_classes;
  solve::RegularizedProblem p;
  p.num_clouds = kI;
  p.num_users = kC;
  p.eps1 = full.eps1;
  p.eps2 = full.eps2;
  p.enforce_capacity = full.enforce_capacity;
  p.recon_price = full.recon_price;
  p.migration_price = full.migration_price;
  p.capacity = full.capacity;
  p.demand.resize(kC);
  p.eps2_user.resize(kC);
  p.linear_cost.resize(kI * kC);
  p.prev.resize(kI * kC);
  const bool has_prev = !full.prev.empty();
  for (std::size_t c = 0; c < kC; ++c) {
    const std::size_t rep = part.representative[c];
    const double w = part.weight(c);
    p.demand[c] = w * full.demand[rep];
    p.eps2_user[c] = w * full.eps2_of(rep);
    for (std::size_t i = 0; i < kI; ++i) {
      p.linear_cost[i * kC + c] = full.linear_cost[full.index(i, rep)];
      p.prev[i * kC + c] = has_prev ? w * full.prev[full.index(i, rep)] : 0.0;
    }
  }
  return p;
}

solve::RegularizedProblem build_collapsed_subproblem(
    const model::Instance& instance, std::size_t t, const ClassPartition& part,
    const Vec& member_prev, const SubproblemParams& params) {
  ECA_CHECK(t < instance.num_slots);
  check_partition(part, instance.num_users);
  const std::size_t kI = instance.num_clouds;
  const std::size_t kC = part.num_classes;
  ECA_CHECK(member_prev.size() == kI * kC, "member_prev has the wrong shape");
  solve::RegularizedProblem p;
  p.num_clouds = kI;
  p.num_users = kC;
  p.eps1 = params.eps1;
  p.eps2 = params.eps2;
  p.enforce_capacity = params.enforce_capacity;
  p.capacity = instance.capacities();
  p.demand.resize(kC);
  p.eps2_user.resize(kC);
  p.linear_cost.resize(kI * kC);
  p.prev.resize(kI * kC);
  const double ws = instance.weights.static_weight;
  const double wd = instance.weights.dynamic_weight;
  for (std::size_t c = 0; c < kC; ++c) {
    const double w = part.weight(c);
    p.demand[c] = w * instance.demand[part.representative[c]];
    p.eps2_user[c] = w * params.eps2;
  }
  for (std::size_t i = 0; i < kI; ++i) {
    const double op = instance.operation_price[t][i];
    for (std::size_t c = 0; c < kC; ++c) {
      p.linear_cost[i * kC + c] =
          ws * (op + instance.service_coefficient(t, i,
                                                  part.representative[c]));
      p.prev[i * kC + c] = part.weight(c) * member_prev[i * kC + c];
    }
  }
  p.recon_price.resize(kI);
  p.migration_price.resize(kI);
  for (std::size_t i = 0; i < kI; ++i) {
    p.recon_price[i] = params.use_reconfiguration_regularizer
                           ? wd * instance.clouds[i].reconfiguration_price
                           : 0.0;
    p.migration_price[i] = params.use_migration_regularizer
                               ? wd * instance.clouds[i].migration_price()
                               : 0.0;
  }
  return p;
}

solve::RegularizedSolution expand_solution(
    const solve::RegularizedSolution& collapsed, const ClassPartition& part,
    std::size_t num_clouds) {
  const std::size_t kI = num_clouds;
  const std::size_t kC = part.num_classes;
  const std::size_t kJ = part.num_users;
  ECA_CHECK(collapsed.x.size() == kI * kC);
  solve::RegularizedSolution sol;
  sol.status = collapsed.status;
  sol.objective_value = collapsed.objective_value;
  sol.newton_iterations = collapsed.newton_iterations;
  sol.warm_started = collapsed.warm_started;
  sol.stats = collapsed.stats;
  sol.rho = collapsed.rho;
  sol.kappa = collapsed.kappa;
  sol.x.resize(kI * kJ);
  sol.theta.resize(kJ);
  sol.delta.resize(kI * kJ);
  for (std::size_t j = 0; j < kJ; ++j) {
    const std::uint32_t c = part.class_of[j];
    sol.theta[j] = collapsed.theta[c];
    const double w = part.weight(c);
    for (std::size_t i = 0; i < kI; ++i) {
      sol.x[i * kJ + j] = collapsed.x[i * kC + c] / w;
      sol.delta[i * kJ + j] = collapsed.delta[i * kC + c];
    }
  }
  return sol;
}

model::CostBreakdown class_slot_cost(const model::Instance& instance,
                                     std::size_t t, const ClassPartition& part,
                                     const Vec& member_x,
                                     const Vec& member_prev) {
  ECA_CHECK(t < instance.num_slots);
  check_partition(part, instance.num_users);
  const std::size_t kI = instance.num_clouds;
  const std::size_t kC = part.num_classes;
  ECA_CHECK(member_x.size() == kI * kC && member_prev.size() == kI * kC);
  model::CostBreakdown cost;
  Vec totals(kI, 0.0);
  Vec prev_totals(kI, 0.0);
  for (std::size_t i = 0; i < kI; ++i) {
    const double price = instance.operation_price[t][i];
    double in_flow = 0.0;
    double out_flow = 0.0;
    for (std::size_t c = 0; c < kC; ++c) {
      const double w = part.weight(c);
      const double x = member_x[i * kC + c];
      const double y = w * x;
      cost.operation += price * y;
      cost.service_quality +=
          instance.service_coefficient(t, i, part.representative[c]) * y;
      totals[i] += y;
      const double p = member_prev[i * kC + c];
      prev_totals[i] += w * p;
      const double diff = x - p;
      in_flow += w * positive_part(diff);
      out_flow += w * positive_part(-diff);
    }
    cost.reconfiguration += instance.clouds[i].reconfiguration_price *
                            positive_part(totals[i] - prev_totals[i]);
    cost.migration += instance.clouds[i].migration_in_price * in_flow +
                      instance.clouds[i].migration_out_price * out_flow;
  }
  for (std::size_t j = 0; j < instance.num_users; ++j) {
    cost.service_quality += instance.access_delay[t][j];
  }
  return cost;
}

double class_slot_violation(const model::Instance& instance,
                            const ClassPartition& part, const Vec& member_x) {
  check_partition(part, instance.num_users);
  const std::size_t kI = instance.num_clouds;
  const std::size_t kC = part.num_classes;
  ECA_CHECK(member_x.size() == kI * kC);
  double violation = 0.0;
  for (const double v : member_x) violation = std::max(violation, -v);
  for (std::size_t c = 0; c < kC; ++c) {
    double total = 0.0;
    for (std::size_t i = 0; i < kI; ++i) total += member_x[i * kC + c];
    violation = std::max(violation,
                         instance.demand[part.representative[c]] - total);
  }
  for (std::size_t i = 0; i < kI; ++i) {
    double total = 0.0;
    for (std::size_t c = 0; c < kC; ++c) {
      total += part.weight(c) * member_x[i * kC + c];
    }
    violation = std::max(violation, total - instance.clouds[i].capacity);
  }
  return violation;
}

}  // namespace eca::agg
