// Shared by the EnvelopeCholesky tests: the reference dense assembly of an
// LP normal matrix A Theta A' + reg I (the interior-point solver's loop
// before the envelope layout) and a bitwise comparison of linalg::Cholesky
// on it against EnvelopeCholesky on the same columns.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/rng.h"
#include "linalg/dense_matrix.h"
#include "linalg/envelope_cholesky.h"

namespace eca::linalg::testing {

inline DenseMatrix dense_normal_matrix(const SparseColumns& columns,
                                       const Vec& theta, double reg,
                                       std::size_t m) {
  DenseMatrix dense(m, m);
  for (std::size_t j = 0; j < columns.size(); ++j) {
    const auto& col = columns[j];
    for (std::size_t p = 0; p < col.size(); ++p) {
      for (std::size_t q = p; q < col.size(); ++q) {
        const double val = theta[j] * col[p].second * col[q].second;
        dense(col[p].first, col[q].first) += val;
        if (p != q) dense(col[q].first, col[p].first) += val;
      }
    }
  }
  for (std::size_t r = 0; r < m; ++r) dense(r, r) += reg;
  return dense;
}

inline void expect_bitwise_equal(const Vec& a, const Vec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "entry " << i << ": " << a[i] << " vs " << b[i];
  }
}

inline std::vector<std::size_t> envelope_of(const SparseColumns& columns,
                                            std::size_t m) {
  std::vector<std::size_t> first;
  EnvelopeCholesky::envelope(columns, columns.size(), m, first);
  return first;
}

// Assembles A diag(theta) A' + reg I both ways, expects the same factor
// outcome, and on success compares solves of a few random right-hand sides
// bit for bit. Returns the factor outcome.
inline bool expect_envelope_matches_dense(const SparseColumns& columns,
                                          const Vec& theta, double reg,
                                          std::size_t m, std::uint64_t seed) {
  Cholesky chol;
  const bool ok = chol.factor(dense_normal_matrix(columns, theta, reg, m));
  EnvelopeCholesky envelope;
  envelope.analyze(columns, columns.size(), m);
  envelope.assemble(columns, columns.size(), theta, reg);
  EXPECT_EQ(envelope.factor(), ok);
  if (!ok) return false;
  Rng rng(seed);
  for (int rep = 0; rep < 3; ++rep) {
    Vec b(m);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    Vec want = b;
    chol.solve_in_place(want);
    Vec got = b;
    envelope.solve_in_place(got);
    expect_bitwise_equal(got, want);
  }
  return true;
}

}  // namespace eca::linalg::testing
