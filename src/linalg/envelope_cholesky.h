// Envelope (profile) Cholesky factorization of an LP normal matrix
// A Theta A' + reg I.
//
// Row r of the lower triangle is stored from its first coupled row first[r]
// to the diagonal: first[r] is the smallest row that shares a column of A
// with row r (r itself when none does). Cholesky fill never leaves this
// envelope, so the factor overwrites the assembled entries in place and
// costs Σ_r Σ_{first[r] <= c < r} (c - max(first[r], first[c])) multiply-adds
// instead of m^3 / 6. Two shapes matter to the solvers:
//
//   * a per-slot baseline LP: the J demand rows touch disjoint columns, so
//     they are a diagonal prefix (first[r] = r) and the capacity rows below
//     are full border rows;
//   * the offline horizon LP in cloud-major row order: each cloud's rows are
//     a staircase over the slots, of width about two slots of that cloud,
//     and only the demand rows at the end span the whole matrix.
//
// assemble() accumulates every entry in the order a dense symmetric
// assembly does, and factor() and solve_in_place() run linalg::Cholesky's
// k-order for every entry, skipping only products with a structural zero
// outside the envelope. A dense factor's entries outside the envelope are
// +0 and skipping them never changes a factor entry; the substitutions
// replay the signed-zero effect of the skipped products. factor() and the
// forward substitution take rows in blocks of kBlockRows and run the
// block's independent sums side by side, each in its own k-order. For
// finite data the factor and the solution are therefore bitwise equal to
// linalg::Cholesky on the dense matrix
// (tests/linalg/envelope_cholesky_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "linalg/vector_ops.h"

namespace eca::linalg {

// Column-wise sparse matrix: one (row, value) list per column.
using SparseColumns = std::vector<std::vector<std::pair<std::size_t, double>>>;

class EnvelopeCholesky {
 public:
  // Rows per block of factor() and of the forward substitution: the number
  // of subtraction chains they interleave.
  static constexpr std::size_t kBlockRows = 8;

  // first[r] for the m x m matrix A Theta A', A = columns[0, n).
  static void envelope(const SparseColumns& columns, std::size_t n,
                       std::size_t m, std::vector<std::size_t>& first);
  // Multiply-adds of one factor() on the envelope `first` (square roots and
  // divisions not counted). Stops summing once the count exceeds `cap`.
  static double factor_work(const std::vector<std::size_t>& first,
                            double cap);

  // Computes the envelope of A Theta A' for A = columns[0, n) with m rows,
  // and the storage layout. Call once per sparsity pattern; assemble() may
  // then run any number of times. Storage capacity is retained, so repeated
  // analyses of a same-size (or smaller) pattern never allocate.
  void analyze(const SparseColumns& columns, std::size_t n, std::size_t m);

  // Sets the stored matrix to A diag(theta) A' + reg I over the analyzed
  // pattern: `columns` must be the analyzed columns (values may differ).
  void assemble(const SparseColumns& columns, std::size_t n, const Vec& theta,
                double reg);

  // Factors the assembled matrix in place; returns false when it is not
  // (numerically) positive definite. The assembled matrix is consumed
  // either way: assemble() again before factoring again.
  bool factor();
  // Solves M x = b in place with the stored factor, overwriting `bx`.
  void solve_in_place(Vec& bx);
  [[nodiscard]] bool ok() const { return ok_; }

  [[nodiscard]] std::size_t stored_entries() const {
    return start_.empty() ? 0 : start_[m_];
  }

 private:
  // Index of lower-triangle entry (r, c), first[r] <= c <= r.
  [[nodiscard]] std::size_t at(std::size_t r, std::size_t c) const {
    ECA_DCHECK(first_[r] <= c && c <= r && r < m_);
    return start_[r] + (c - first_[r]);
  }

  std::size_t m_ = 0;
  std::vector<std::size_t> first_;
  std::vector<std::size_t> start_;  // row r's entries start at start_[r]
  Vec values_;                      // assembled matrix, then the factor
  // factor()'s working copy of one row block, interleaved by column and
  // zero outside the rows' envelopes; sized by analyze() for the widest
  // block.
  Vec panel_;
  // Transposed index for the back substitution: the rows k > c whose
  // envelope reaches column c, ascending, are
  // col_rows_[col_start_[c], col_start_[c + 1]).
  std::vector<std::size_t> col_start_;
  std::vector<std::uint32_t> col_rows_;
  // Back-substitution scratch: neg_[k] counts the entries x_k.. x_{m-1}
  // with the sign bit set.
  std::vector<std::size_t> neg_;
  bool ok_ = false;
};

}  // namespace eca::linalg
