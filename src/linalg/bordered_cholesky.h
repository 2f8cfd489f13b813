// Cholesky factorization of an LP normal matrix A Theta A' + reg I whose
// leading d x d block is diagonal:
//
//       [ D   B' ]        D  diagonal (d x d)
//   M = [        ]        B  dense coupling block ((m-d) x d)
//       [ B   T  ]        T  dense trailing block ((m-d) x (m-d))
//
// The leading block is diagonal when no column of A touches two of the
// first d rows (the per-slot baseline LPs: every x_ij sits in exactly one
// demand row). Only D and the lower triangle of [B T] are stored — the
// "border" panel, rows d..m-1 of the lower triangle — so the factor costs
// about d (m-d)^2 / 2 multiply-adds instead of m^3 / 6.
//
// assemble() accumulates every entry in the order a dense symmetric
// assembly does, and factor() and solve_in_place() run linalg::Cholesky's
// column and k-order exactly, skipping only the products with a structural
// zero of the diagonal block. For finite data the factor and the solution
// are therefore bitwise equal to linalg::Cholesky on the dense matrix
// (tests/linalg/bordered_cholesky_test.cc). d = 0 is a plain dense
// lower-triangular factor; d = m is a diagonal one.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "linalg/vector_ops.h"

namespace eca::linalg {

// Column-wise sparse matrix: one (row, value) list per column.
using SparseColumns = std::vector<std::vector<std::pair<std::size_t, double>>>;

class BorderedCholesky {
 public:
  // Longest prefix of the m rows that no column touches twice (a repeated
  // row counts twice): the leading block of A Theta A' over those rows is
  // diagonal.
  static std::size_t diagonal_prefix(const SparseColumns& columns,
                                     std::size_t m);

  // Sets the stored matrix to A diag(theta) A' + reg I, where A is m x n
  // with columns columns[0, n) and d <= diagonal_prefix(columns, m).
  // Storage capacity is retained, so repeated same-size (or shrinking)
  // assemblies never allocate.
  void assemble(const SparseColumns& columns, std::size_t n, std::size_t m,
                std::size_t d, const Vec& theta, double reg);

  // Factors the assembled matrix in place; returns false when it is not
  // (numerically) positive definite. The assembled matrix is consumed
  // either way: assemble() again before factoring again.
  bool factor();
  // Solves M x = b in place with the stored factor, overwriting `bx`.
  void solve_in_place(Vec& bx) const;
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  // M(r, c) += v on the lower triangle (c <= r).
  void add(std::size_t r, std::size_t c, double v) {
    ECA_DCHECK(c <= r && r < m_);
    if (r < d_) {
      ECA_DCHECK(c == r);
      diag_[r] += v;
    } else {
      panel_[(r - d_) * m_ + c] += v;
    }
  }

  std::size_t m_ = 0;
  std::size_t d_ = 0;
  Vec diag_;   // D, then diag(L) of the leading block
  Vec panel_;  // (m-d) x m row-major: [B T] lower triangle, then L's rows
  bool ok_ = false;
};

}  // namespace eca::linalg
