// The per-slot baseline LPs' normal matrices in BorderedCholesky's layout:
// the J demand rows form the diagonal block, and the bordered factor and
// solves are bitwise equal to linalg::Cholesky on the assembled dense matrix.
#include <gtest/gtest.h>

#include <cmath>

#include "../linalg/normal_matrix_util.h"
#include "algo/slot_lp.h"
#include "common/rng.h"
#include "sim/scenario.h"

namespace eca::algo {
namespace {

// The interior-point solver's standard-form columns of `lp`: one column per
// variable with its row entries in element order, then one slack column per
// inequality row. No slot-LP row is vacuous, so the internal rows are the
// LP's rows; fixed variables are kept, which only adds columns.
linalg::SparseColumns standard_form_columns(const solve::LpProblem& lp) {
  linalg::SparseColumns columns(lp.num_vars);
  for (const auto& t : lp.elements) columns[t.col].push_back({t.row, t.value});
  for (std::size_t r = 0; r < lp.num_rows; ++r) {
    const bool lo = lp.row_lower[r] != -solve::kInf;
    const bool hi = lp.row_upper[r] != solve::kInf;
    if (lo && hi && lp.row_upper[r] - lp.row_lower[r] <= 1e-12) continue;
    columns.push_back({{r, lo ? -1.0 : 1.0}});
  }
  return columns;
}

void expect_bordered_matches_dense(const solve::LpProblem& lp,
                                   std::size_t num_users, std::uint64_t seed) {
  const linalg::SparseColumns columns = standard_form_columns(lp);
  const std::size_t m = lp.num_rows;
  const std::size_t d = linalg::BorderedCholesky::diagonal_prefix(columns, m);
  EXPECT_EQ(d, num_users);
  Rng rng(seed);
  linalg::Vec theta(columns.size());
  for (double& t : theta) t = std::pow(10.0, rng.uniform(-8.0, 8.0));
  EXPECT_TRUE(linalg::testing::expect_bordered_matches_dense(
      columns, theta, 1e-10, m, d, seed));
}

TEST(SlotLpNormalMatrix, DemandRowsFormTheDiagonalBlock) {
  for (const std::size_t users : {1, 8, 64}) {
    sim::ScenarioOptions options;
    options.num_users = users;
    options.num_slots = 2;
    options.seed = 3;
    const model::Instance instance = sim::make_random_walk_instance(options);
    const StaticSlotLp static_lp = build_static_slot_lp(instance, 1, true, true);
    expect_bordered_matches_dense(static_lp.lp, users, 100 + users);

    model::Allocation previous(instance.num_clouds, users);
    for (std::size_t j = 0; j < users; ++j) {
      previous.at(j % instance.num_clouds, j) = instance.demand[j];
    }
    const GreedySlotLp greedy = build_greedy_slot_lp(instance, 1, previous);
    expect_bordered_matches_dense(greedy.lp, users, 200 + users);
  }
}

}  // namespace
}  // namespace eca::algo
