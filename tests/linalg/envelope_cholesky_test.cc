// EnvelopeCholesky against linalg::Cholesky, bit for bit. The
// BorderedCholesky suite covers the per-slot LP shape — a diagonal prefix of
// rows no column touches twice, then full border rows; the EnvelopeCholesky
// suite covers general envelopes, where rows start anywhere, and the edges
// of the kBlockRows row blocks factor() and the forward solve work in.
#include "linalg/envelope_cholesky.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "linalg/dense_matrix.h"
#include "normal_matrix_util.h"

namespace eca::linalg {
namespace {

using testing::dense_normal_matrix;
using testing::envelope_of;
using testing::expect_bitwise_equal;
using testing::expect_envelope_matches_dense;

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

// The leading `d` rows form a diagonal block: their envelopes start at the
// row itself.
void expect_diagonal_prefix(const SparseColumns& columns, std::size_t m,
                            std::size_t d) {
  const std::vector<std::size_t> first = envelope_of(columns, m);
  for (std::size_t r = 0; r < d; ++r) EXPECT_EQ(first[r], r) << "row " << r;
}

TEST(BorderedCholesky, MatchesDenseOnRandomBorderedShapes) {
  Rng rng(11);
  for (const auto& [d_rows, border_rows] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {5, 3}, {40, 7}, {3, 20}}) {
    const SparseColumns columns =
        random_columns(rng, d_rows, border_rows, 4 * (d_rows + border_rows));
    const std::size_t m = d_rows + border_rows;
    expect_diagonal_prefix(columns, m, d_rows);
    const Vec theta = random_theta(rng, columns.size());
    EXPECT_TRUE(expect_envelope_matches_dense(columns, theta, 1e-10, m, m));
  }
}

TEST(BorderedCholesky, DenseLayoutWhenTheFirstRowsShareAColumn) {
  Rng rng(12);
  SparseColumns columns = random_columns(rng, 0, 12, 30);
  columns.push_back({{0, 1.0}, {1, 2.0}});
  const std::size_t m = 12;
  EXPECT_EQ(envelope_of(columns, m)[1], 0U);
  const Vec theta = random_theta(rng, columns.size());
  EXPECT_TRUE(expect_envelope_matches_dense(columns, theta, 1e-10, m, 7));
  // A column that repeats row 0 couples it with itself twice: the repeated
  // pair must reach the diagonal twice, as in the dense sum.
  columns.push_back({{0, 1.0}, {0, -0.5}});
  const Vec theta2 = random_theta(rng, columns.size());
  EXPECT_TRUE(expect_envelope_matches_dense(columns, theta2, 1e-10, m, 9));
}

TEST(BorderedCholesky, FullyDiagonalMatrix) {
  Rng rng(13);
  const SparseColumns columns = random_columns(rng, 9, 0, 25);
  const std::size_t m = 9;
  expect_diagonal_prefix(columns, m, m);
  EnvelopeCholesky envelope;
  envelope.analyze(columns, columns.size(), m);
  EXPECT_EQ(envelope.stored_entries(), m);
  const Vec theta = random_theta(rng, columns.size());
  EXPECT_TRUE(expect_envelope_matches_dense(columns, theta, 1e-10, m, 3));
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
  expect_diagonal_prefix(columns, m, d);
  int failures = 0;
  double reg = 1e-10;
  while (!expect_envelope_matches_dense(columns, theta, reg, m, 5)) {
    ++failures;
    reg = std::max(reg * 100.0, 1e-12);
    ASSERT_LE(reg, 1e2);
  }
  EXPECT_GE(failures, 2);
}

TEST(BorderedCholesky, RejectsIndefiniteMatrix) {
  // A negative pivot inside the diagonal block.
  const SparseColumns diag_cols = {{{0, 1.0}}, {{1, 1.0}}, {{2, 1.0}}};
  EnvelopeCholesky diag_block;
  diag_block.analyze(diag_cols, 3, 3);
  diag_block.assemble(diag_cols, 3, {1.0, -1.0, 1.0}, 0.0);
  EXPECT_FALSE(diag_block.factor());
  EXPECT_FALSE(diag_block.ok());
  // An indefinite border: 2 (e0+e1)(e0+e1)' - e0 e0' - e1 e1' is
  // [[1, 2], [2, 1]], with eigenvalues 3 and -1.
  const SparseColumns border_cols = {{{0, 1.0}, {1, 1.0}}, {{0, 1.0}}, {{1, 1.0}}};
  const Vec theta = {2.0, -1.0, -1.0};
  EXPECT_FALSE(expect_envelope_matches_dense(border_cols, theta, 0.0, 2, 1));
}

// Signed zeros: the dense substitutions subtract 0 * x_k for each structural
// zero, which flips a -0.0 partial sum to +0.0 once a negative x_k has been
// seen. Rows 1 and 2 have no border coupling, so their -0.0 right-hand sides
// survive to the output.
TEST(BorderedCholesky, SignedZeroRightHandSidesMatchDense) {
  const std::size_t m = 4;
  const SparseColumns columns = {
      {{0, 1.0}, {3, 0.5}}, {{1, 1.0}}, {{2, 1.0}}, {{3, 1.0}}};
  expect_diagonal_prefix(columns, m, 3);
  const Vec theta = {2.0, 3.0, 5.0, 7.0};
  Cholesky chol;
  ASSERT_TRUE(chol.factor(dense_normal_matrix(columns, theta, 0.0, m)));
  EnvelopeCholesky envelope;
  envelope.analyze(columns, columns.size(), m);
  envelope.assemble(columns, columns.size(), theta, 0.0);
  ASSERT_TRUE(envelope.factor());
  for (const Vec& b : {Vec{-1.0, -0.0, -0.0, 0.5}, Vec{1.0, -0.0, -0.0, 0.5},
                       Vec{-0.0, -0.0, -2.0, -0.0}, Vec{-0.0, -0.0, -0.0, -0.0}}) {
    Vec want = b;
    chol.solve_in_place(want);
    Vec got = b;
    envelope.solve_in_place(got);
    expect_bitwise_equal(got, want);
  }
}

// Columns of a banded staircase: each column touches a few rows within
// `width` of its first row, so envelopes start at scattered rows and the
// back substitution's columns have gaps before, between and after their
// stored rows.
SparseColumns random_staircase(Rng& rng, std::size_t m, std::size_t width,
                               std::size_t structurals) {
  SparseColumns columns;
  for (std::size_t k = 0; k < structurals; ++k) {
    const std::size_t lo = rng.uniform_index(m);
    columns.emplace_back();
    columns.back().push_back({lo, rng.uniform(-2.0, 2.0)});
    for (std::size_t r = lo + 1; r < std::min(m, lo + width); ++r) {
      if (rng.uniform() < 0.3) {
        columns.back().push_back({r, rng.uniform(-2.0, 2.0)});
      }
    }
  }
  for (std::size_t r = 0; r < m; ++r) columns.push_back({{r, 1.0}});
  return columns;
}

TEST(EnvelopeCholesky, MatchesDenseOnRandomStaircases) {
  Rng rng(21);
  for (const auto& [m, width] :
       {std::pair<std::size_t, std::size_t>{6, 2}, {20, 3}, {40, 8}, {60, 30}}) {
    const SparseColumns columns = random_staircase(rng, m, width, 2 * m);
    const Vec theta = random_theta(rng, columns.size());
    EXPECT_TRUE(expect_envelope_matches_dense(columns, theta, 1e-10, m, m));
  }
}

TEST(EnvelopeCholesky, FactorWorkCountsTheEnvelopeDotProducts) {
  // Tridiagonal: each row's envelope starts one row up, and l_{i,i-1} needs
  // no product (row i-1 starts at i-2 or later), so the work is the m-1
  // diagonal dot products of length one.
  const std::size_t m = 7;
  SparseColumns columns;
  for (std::size_t r = 0; r + 1 < m; ++r) columns.push_back({{r, 1.0}, {r + 1, 1.0}});
  const std::vector<std::size_t> first = envelope_of(columns, m);
  for (std::size_t r = 1; r < m; ++r) EXPECT_EQ(first[r], r - 1);
  EXPECT_EQ(EnvelopeCholesky::factor_work(first, 1e18), m - 1.0);
  // A column touching every row gives a full envelope: row i costs j for
  // each entry j < i and i for its diagonal.
  const SparseColumns dense = {{{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}}};
  const double want = 0 + (0 + 1) + (0 + 1 + 2) + (0 + 1 + 2 + 3);
  EXPECT_EQ(EnvelopeCholesky::factor_work(envelope_of(dense, 4), 1e18), want);
  // The cap stops the count early.
  EXPECT_LT(EnvelopeCholesky::factor_work(envelope_of(dense, 4), 2.0), want);
}

// Signed zeros through envelope gaps: right-hand sides full of +0.0 and -0.0
// make the skipped products decide the sign of many outputs, in the forward
// solve (a negative x_k before first[i]) and in the back solve (a negative
// x_k in a gap of column i before, between or after its stored rows).
TEST(EnvelopeCholesky, SignedZerosThroughEnvelopeGapsMatchDense) {
  Rng rng(22);
  int signed_zero_outputs = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t m = 3 + rng.uniform_index(10);
    const SparseColumns columns = random_staircase(rng, m, 4, m);
    const Vec theta = random_theta(rng, columns.size());
    Cholesky chol;
    ASSERT_TRUE(chol.factor(dense_normal_matrix(columns, theta, 1e-10, m)));
    EnvelopeCholesky envelope;
    envelope.analyze(columns, columns.size(), m);
    envelope.assemble(columns, columns.size(), theta, 1e-10);
    ASSERT_TRUE(envelope.factor());
    Vec b(m);
    for (double& v : b) {
      const double u = rng.uniform();
      v = u < 0.35 ? -0.0 : u < 0.7 ? 0.0 : rng.uniform(-1.0, 1.0);
    }
    Vec want = b;
    chol.solve_in_place(want);
    Vec got = b;
    envelope.solve_in_place(got);
    expect_bitwise_equal(got, want);
    for (const double v : want) signed_zero_outputs += v == 0.0 ? 1 : 0;
  }
  EXPECT_GT(signed_zero_outputs, 100);
}

constexpr std::size_t R = EnvelopeCholesky::kBlockRows;

// Sizes below one block, at and around block multiples, and staircases
// narrow enough that most rows' envelopes start inside their own block.
TEST(EnvelopeCholesky, BlockEdgesMatchDense) {
  Rng rng(23);
  int first_inside_block = 0;
  for (const std::size_t m :
       {std::size_t{1}, std::size_t{2}, R - 1, R, R + 1, 2 * R - 1, 2 * R,
        3 * R + 5, 5 * R + 3}) {
    for (const std::size_t width : {std::size_t{2}, std::size_t{4}, R + 3}) {
      const SparseColumns columns = random_staircase(rng, m, width, 2 * m);
      const std::vector<std::size_t> first = envelope_of(columns, m);
      for (std::size_t r = 0; r < m; ++r) {
        if (first[r] < r && first[r] >= r - r % R) ++first_inside_block;
      }
      const Vec theta = random_theta(rng, columns.size());
      EXPECT_TRUE(expect_envelope_matches_dense(columns, theta, 1e-10, m,
                                                m * 100 + width));
    }
  }
  EXPECT_GT(first_inside_block, 50);
}

// Blocks whose rows start far apart: a border row over the whole matrix
// shares each block with staircase rows, so a block's rows start anywhere
// from 0 to their own index.
TEST(EnvelopeCholesky, BlocksMixingBorderAndStaircaseRowsMatchDense) {
  Rng rng(24);
  for (const std::size_t m : {3 * R + 2, 6 * R}) {
    SparseColumns columns = random_staircase(rng, m, 3, 2 * m);
    for (std::size_t r = R / 2; r < m; r += R + 3) {
      columns.push_back({{0, rng.uniform(-2.0, 2.0)}, {r, 1.0}});
    }
    const std::vector<std::size_t> first = envelope_of(columns, m);
    EXPECT_EQ(first[R / 2], 0U);
    const Vec theta = random_theta(rng, columns.size());
    EXPECT_TRUE(expect_envelope_matches_dense(columns, theta, 1e-10, m, m));
  }
}

TEST(EnvelopeCholesky, FullyDiagonalMatrixAcrossBlocks) {
  Rng rng(25);
  const std::size_t m = 3 * R + 1;
  SparseColumns columns;
  for (std::size_t k = 0; k < 2 * m; ++k) {
    columns.push_back({{k % m, rng.uniform(-2.0, 2.0)}});
  }
  expect_diagonal_prefix(columns, m, m);
  const Vec theta = random_theta(rng, columns.size());
  EXPECT_TRUE(expect_envelope_matches_dense(columns, theta, 1e-10, m, 4));
}

// The interior-point solver's retry on one object: a factor that fails in
// the middle of a block, then a re-assembly with more regularization that
// succeeds. Rows p and q = p + 2 sit in one block and are identical (every
// column touches both alike), and a negatively weighted column on e_p - e_q
// makes the matrix indefinite; the failure must leave nothing behind that
// the retry reads.
TEST(EnvelopeCholesky, FailureMidBlockThenRetryMatchesDense) {
  Rng rng(26);
  const std::size_t m = 3 * R;
  const std::size_t p = R + R / 2 - 1;
  const std::size_t q = p + 2;
  SparseColumns columns = random_staircase(rng, m, 5, 2 * m);
  for (auto& col : columns) {
    std::erase_if(col, [&](const auto& e) { return e.first == q; });
    const auto at_p = std::find_if(col.begin(), col.end(),
                                   [&](const auto& e) { return e.first == p; });
    if (at_p != col.end()) col.push_back({q, at_p->second});
  }
  columns.push_back({{p, 1.0}, {q, -1.0}});
  Vec theta = random_theta(rng, columns.size());
  theta.back() = -1e-3;
  EnvelopeCholesky envelope;
  envelope.analyze(columns, columns.size(), m);
  int failures = 0;
  double reg = 1e-10;
  for (;;) {
    Cholesky chol;
    const bool dense_ok =
        chol.factor(dense_normal_matrix(columns, theta, reg, m));
    envelope.assemble(columns, columns.size(), theta, reg);
    ASSERT_EQ(envelope.factor(), dense_ok) << "reg " << reg;
    if (dense_ok) {
      Rng rhs(27);
      Vec b(m);
      for (double& v : b) v = rhs.uniform(-1.0, 1.0);
      Vec want = b;
      chol.solve_in_place(want);
      envelope.solve_in_place(b);
      expect_bitwise_equal(b, want);
      break;
    }
    ++failures;
    reg *= 100.0;
    ASSERT_LE(reg, 1e4);
  }
  EXPECT_GE(failures, 2);
}

// Signed zeros through the blocked forward solve: matrices several blocks
// tall, so each block's k < i0 chains run interleaved and the replay of a
// negative x_k before first[i] happens when row i finishes.
TEST(EnvelopeCholesky, SignedZerosThroughBlockedForwardSolveMatchDense) {
  Rng rng(28);
  int signed_zero_outputs = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t m = 2 * R + 1 + rng.uniform_index(3 * R);
    const SparseColumns columns =
        random_staircase(rng, m, 2 + rng.uniform_index(2 * R), m / 2);
    const Vec theta = random_theta(rng, columns.size());
    Cholesky chol;
    ASSERT_TRUE(chol.factor(dense_normal_matrix(columns, theta, 1e-10, m)));
    EnvelopeCholesky envelope;
    envelope.analyze(columns, columns.size(), m);
    envelope.assemble(columns, columns.size(), theta, 1e-10);
    ASSERT_TRUE(envelope.factor());
    Vec b(m);
    for (double& v : b) {
      const double u = rng.uniform();
      v = u < 0.4 ? -0.0 : u < 0.8 ? 0.0 : rng.uniform(-1.0, 1.0);
    }
    Vec want = b;
    chol.solve_in_place(want);
    Vec got = b;
    envelope.solve_in_place(got);
    expect_bitwise_equal(got, want);
    for (const double v : want) signed_zero_outputs += v == 0.0 ? 1 : 0;
  }
  EXPECT_GT(signed_zero_outputs, 200);
}

}  // namespace
}  // namespace eca::linalg
