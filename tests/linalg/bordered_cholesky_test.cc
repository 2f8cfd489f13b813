#include "linalg/bordered_cholesky.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "linalg/dense_matrix.h"
#include "normal_matrix_util.h"

namespace eca::linalg {
namespace {

using testing::dense_normal_matrix;
using testing::expect_bitwise_equal;
using testing::expect_bordered_matches_dense;

// Columns in the shape of an LP's standard form: `d_rows` leading rows that
// each column touches at most once, border rows touched freely, plus one
// slack column per row.
SparseColumns random_columns(Rng& rng, std::size_t d_rows,
                             std::size_t border_rows,
                             std::size_t structurals) {
  const std::size_t m = d_rows + border_rows;
  SparseColumns columns;
  for (std::size_t k = 0; k < structurals; ++k) {
    columns.emplace_back();
    if (d_rows > 0) columns.back().push_back({rng.uniform_index(d_rows), 1.0});
    for (std::size_t r = d_rows; r < m; ++r) {
      if (rng.uniform() < 0.4) {
        columns.back().push_back({r, rng.uniform(-2.0, 2.0)});
      }
    }
  }
  for (std::size_t r = 0; r < m; ++r) columns.push_back({{r, -1.0}});
  return columns;
}

Vec random_theta(Rng& rng, std::size_t n) {
  Vec theta(n);
  for (double& t : theta) t = std::pow(10.0, rng.uniform(-6.0, 6.0));
  return theta;
}

TEST(BorderedCholesky, MatchesDenseOnRandomBorderedShapes) {
  Rng rng(11);
  for (const auto& [d_rows, border_rows] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {5, 3}, {40, 7}, {3, 20}}) {
    const SparseColumns columns =
        random_columns(rng, d_rows, border_rows, 4 * (d_rows + border_rows));
    const std::size_t m = d_rows + border_rows;
    const std::size_t d = BorderedCholesky::diagonal_prefix(columns, m);
    ASSERT_GE(d, d_rows);
    const Vec theta = random_theta(rng, columns.size());
    EXPECT_TRUE(expect_bordered_matches_dense(columns, theta, 1e-10, m, d, m));
  }
}

TEST(BorderedCholesky, DenseLayoutWhenTheFirstRowsShareAColumn) {
  Rng rng(12);
  SparseColumns columns = random_columns(rng, 0, 12, 30);
  columns.push_back({{0, 1.0}, {1, 2.0}});
  const std::size_t m = 12;
  // A single leading row is a trivially diagonal block; d = 0 and d = 1
  // must both reproduce the dense factor.
  EXPECT_LE(BorderedCholesky::diagonal_prefix(columns, m), 1U);
  const Vec theta = random_theta(rng, columns.size());
  for (const std::size_t d : {std::size_t{0}, std::size_t{1}}) {
    EXPECT_TRUE(expect_bordered_matches_dense(columns, theta, 1e-10, m, d, 7));
  }
  // A column that repeats row 0 couples it with itself twice: prefix 0, and
  // the repeated pair must reach the diagonal twice, as in the dense sum.
  columns.push_back({{0, 1.0}, {0, -0.5}});
  EXPECT_EQ(BorderedCholesky::diagonal_prefix(columns, m), 0U);
  const Vec theta2 = random_theta(rng, columns.size());
  EXPECT_TRUE(expect_bordered_matches_dense(columns, theta2, 1e-10, m, 0, 9));
}

TEST(BorderedCholesky, FullyDiagonalMatrix) {
  Rng rng(13);
  const SparseColumns columns = random_columns(rng, 9, 0, 25);
  const std::size_t m = 9;
  ASSERT_EQ(BorderedCholesky::diagonal_prefix(columns, m), m);
  const Vec theta = random_theta(rng, columns.size());
  EXPECT_TRUE(expect_bordered_matches_dense(columns, theta, 1e-10, m, m, 3));
}

// The interior-point solver's retry loop: a factor failure re-assembles with
// 100x the regularization. Border rows d and d+1 are identical (every column
// touches both alike), and one negatively weighted column pushes the matrix
// indefinite along e_d - e_{d+1}: both layouts must fail and then succeed at
// the same regularization, with bitwise-equal solves.
TEST(BorderedCholesky, RegularizationRetryMatchesDense) {
  Rng rng(14);
  const std::size_t d = 6;
  const std::size_t m = d + 3;
  SparseColumns columns;
  for (std::size_t k = 0; k < 20; ++k) {
    const double a = rng.uniform(0.5, 2.0);
    columns.push_back(
        {{k % d, 1.0}, {d, a}, {d + 1, a}, {d + 2, rng.uniform(-1.0, 1.0)}});
  }
  columns.push_back({{d, 1.0}, {d + 1, -1.0}});
  Vec theta = random_theta(rng, columns.size());
  theta.back() = -1e-6;
  ASSERT_EQ(BorderedCholesky::diagonal_prefix(columns, m), d);
  int failures = 0;
  double reg = 1e-10;
  while (!expect_bordered_matches_dense(columns, theta, reg, m, d, 5)) {
    ++failures;
    reg = std::max(reg * 100.0, 1e-12);
    ASSERT_LE(reg, 1e2);
  }
  EXPECT_GE(failures, 2);
}

TEST(BorderedCholesky, RejectsIndefiniteMatrix) {
  // A negative pivot inside the diagonal block.
  const SparseColumns diag_cols = {{{0, 1.0}}, {{1, 1.0}}, {{2, 1.0}}};
  BorderedCholesky diag_block;
  diag_block.assemble(diag_cols, 3, 3, 2, {1.0, -1.0, 1.0}, 0.0);
  EXPECT_FALSE(diag_block.factor());
  EXPECT_FALSE(diag_block.ok());
  // An indefinite border: 2 (e0+e1)(e0+e1)' - e0 e0' - e1 e1' is
  // [[1, 2], [2, 1]], with eigenvalues 3 and -1.
  const SparseColumns border_cols = {{{0, 1.0}, {1, 1.0}}, {{0, 1.0}}, {{1, 1.0}}};
  const Vec theta = {2.0, -1.0, -1.0};
  for (const std::size_t d : {std::size_t{0}, std::size_t{1}}) {
    EXPECT_FALSE(expect_bordered_matches_dense(border_cols, theta, 0.0, 2, d, 1));
  }
}

// Signed zeros: the dense substitutions subtract 0 * x_k for each structural
// zero, which flips a -0.0 partial sum to +0.0 once a negative x_k has been
// seen. Rows 1 and 2 have no border coupling, so their -0.0 right-hand sides
// survive to the output.
TEST(BorderedCholesky, SignedZeroRightHandSidesMatchDense) {
  const std::size_t m = 4;
  const std::size_t d = 3;
  const SparseColumns columns = {
      {{0, 1.0}, {3, 0.5}}, {{1, 1.0}}, {{2, 1.0}}, {{3, 1.0}}};
  const Vec theta = {2.0, 3.0, 5.0, 7.0};
  Cholesky chol;
  ASSERT_TRUE(chol.factor(dense_normal_matrix(columns, theta, 0.0, m)));
  BorderedCholesky bordered;
  bordered.assemble(columns, columns.size(), m, d, theta, 0.0);
  ASSERT_TRUE(bordered.factor());
  for (const Vec& b : {Vec{-1.0, -0.0, -0.0, 0.5}, Vec{1.0, -0.0, -0.0, 0.5},
                       Vec{-0.0, -0.0, -2.0, -0.0}, Vec{-0.0, -0.0, -0.0, -0.0}}) {
    Vec want = b;
    chol.solve_in_place(want);
    Vec got = b;
    bordered.solve_in_place(got);
    expect_bitwise_equal(got, want);
  }
}

}  // namespace
}  // namespace eca::linalg
