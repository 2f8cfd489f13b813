// The LP normal matrices the interior-point solver factors, in
// EnvelopeCholesky's layout: the per-slot baseline LPs (the J demand rows
// form a diagonal block) and the offline horizon LP (per-cloud staircases,
// demand rows last). In every case the envelope factor and solves are
// bitwise equal to linalg::Cholesky on the assembled dense matrix.
#include <gtest/gtest.h>

#include <cmath>

#include "../linalg/normal_matrix_util.h"
#include "algo/offline.h"
#include "algo/slot_lp.h"
#include "common/rng.h"
#include "sim/scenario.h"
#include "solve/ipm_lp.h"

namespace eca::algo {
namespace {

// The interior-point solver's standard-form columns of `lp`: one column per
// variable with its row entries in element order, then one slack column per
// inequality row. No row of these LPs is vacuous, so the internal rows are
// the LP's rows; fixed variables are kept, which only adds columns.
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

void expect_matches_dense_on_random_theta(
    const linalg::SparseColumns& columns, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Vec theta(columns.size());
  for (double& t : theta) t = std::pow(10.0, rng.uniform(-8.0, 8.0));
  EXPECT_TRUE(linalg::testing::expect_envelope_matches_dense(
      columns, theta, 1e-10, m, seed));
}

void expect_slot_lp_matches_dense(const solve::LpProblem& lp,
                                  std::size_t num_users, std::uint64_t seed) {
  const linalg::SparseColumns columns = standard_form_columns(lp);
  const std::size_t m = lp.num_rows;
  const std::vector<std::size_t> first =
      linalg::testing::envelope_of(columns, m);
  for (std::size_t r = 0; r < num_users; ++r) EXPECT_EQ(first[r], r);
  for (std::size_t r = num_users; r < m; ++r) EXPECT_EQ(first[r], 0U);
  expect_matches_dense_on_random_theta(columns, m, seed);
}

TEST(SlotLpNormalMatrix, DemandRowsFormTheDiagonalBlock) {
  for (const std::size_t users : {1, 8, 64}) {
    sim::ScenarioOptions options;
    options.num_users = users;
    options.num_slots = 2;
    options.seed = 3;
    const model::Instance instance = sim::make_random_walk_instance(options);
    const StaticSlotLp static_lp = build_static_slot_lp(instance, 1, true, true);
    expect_slot_lp_matches_dense(static_lp.lp, users, 100 + users);

    model::Allocation previous(instance.num_clouds, users);
    for (std::size_t j = 0; j < users; ++j) {
      previous.at(j % instance.num_clouds, j) = instance.demand[j];
    }
    const GreedySlotLp greedy = build_greedy_slot_lp(instance, 1, previous);
    expect_slot_lp_matches_dense(greedy.lp, users, 200 + users);
  }
}

// The offline LP's rows re-sorted slot-major — per slot t: demand (t, j),
// capacity (t, i), reconfiguration (t, i), migration (t, i, j) — a second
// staircase shape, with every envelope spanning about two slots.
linalg::SparseColumns slot_major(const linalg::SparseColumns& columns,
                                 std::size_t kI, std::size_t kJ,
                                 std::size_t kT) {
  const std::size_t per_slot = kJ + 2 * kI + kI * kJ;
  std::vector<std::size_t> slot_row(kT * per_slot);
  std::size_t r = 0;  // cloud-major row index
  for (std::size_t i = 0; i < kI; ++i) {
    for (std::size_t t = 0; t < kT; ++t) {
      for (std::size_t j = 0; j < kJ; ++j) {
        slot_row[r++] = t * per_slot + kJ + 2 * kI + i * kJ + j;
      }
      slot_row[r++] = t * per_slot + kJ + kI + i;
      slot_row[r++] = t * per_slot + kJ + i;
    }
  }
  for (std::size_t t = 0; t < kT; ++t) {
    for (std::size_t j = 0; j < kJ; ++j) slot_row[r++] = t * per_slot + j;
  }
  linalg::SparseColumns out = columns;
  for (auto& col : out) {
    for (auto& entry : col) entry.first = slot_row[entry.first];
  }
  return out;
}

TEST(OfflineLpNormalMatrix, StaircaseMatchesDenseInBothRowOrders) {
  for (const auto& [users, slots] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {2, 3}, {3, 4}}) {
    sim::ScenarioOptions options;
    options.num_users = users;
    options.num_slots = slots;
    options.seed = 5;
    const model::Instance instance = sim::make_random_walk_instance(options);
    const solve::LpProblem lp =
        build_horizon_lp(instance, 0, instance.num_slots, {});
    const linalg::SparseColumns columns = standard_form_columns(lp);
    const std::size_t m = lp.num_rows;
    expect_matches_dense_on_random_theta(columns, m, 300 + users);
    expect_matches_dense_on_random_theta(
        slot_major(columns, instance.num_clouds, users, slots), m,
        400 + users);
  }
}

// At the Fig-2 scale (I=15, J=8, T=8; 1264 rows) the cloud-major order
// keeps the factor to 3.2M multiply-adds: an eighth of the slot-major
// order's envelope and a hundredth of a dense factor's 337M.
TEST(OfflineLpNormalMatrix, CloudMajorOrderShrinksTheFactorAtFigure2Scale) {
  sim::ScenarioOptions options;
  options.num_users = 8;
  options.num_slots = 8;
  const model::Instance instance = sim::make_rome_taxi_instance(options, 3);
  const solve::LpProblem lp =
      build_horizon_lp(instance, 0, instance.num_slots, {});
  ASSERT_EQ(lp.num_rows, 1264U);
  const linalg::SparseColumns columns = standard_form_columns(lp);
  const auto work = [&](const linalg::SparseColumns& cols) {
    return linalg::EnvelopeCholesky::factor_work(
        linalg::testing::envelope_of(cols, lp.num_rows), 1e18);
  };
  const double cloud_major = work(columns);
  const double slot_major_work =
      work(slot_major(columns, instance.num_clouds, 8, 8));
  EXPECT_EQ(cloud_major, 3207767.0);
  EXPECT_EQ(slot_major_work, 26270275.0);
  EXPECT_EQ(solve::normal_factor_work(lp, 1e18), cloud_major);
  linalg::EnvelopeCholesky envelope;
  envelope.analyze(columns, columns.size(), lp.num_rows);
  EXPECT_EQ(envelope.stored_entries(), 89106U);
}

// The blocked factor and forward solve on the real Fig-2 staircase: 158
// blocks whose rows start anywhere from a few rows back (the cloud
// staircases) to the top of the matrix (the demand rows).
TEST(OfflineLpNormalMatrix, Figure2StaircaseMatchesDense) {
  sim::ScenarioOptions options;
  options.num_users = 8;
  options.num_slots = 8;
  const model::Instance instance = sim::make_rome_taxi_instance(options, 3);
  const solve::LpProblem lp =
      build_horizon_lp(instance, 0, instance.num_slots, {});
  ASSERT_EQ(lp.num_rows, 1264U);
  expect_matches_dense_on_random_theta(standard_form_columns(lp),
                                       lp.num_rows, 500);
}

}  // namespace
}  // namespace eca::algo
