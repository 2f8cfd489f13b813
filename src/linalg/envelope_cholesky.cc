#include "linalg/envelope_cholesky.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace eca::linalg {

void EnvelopeCholesky::envelope(const SparseColumns& columns, std::size_t n,
                                std::size_t m,
                                std::vector<std::size_t>& first) {
  first.resize(m);
  for (std::size_t r = 0; r < m; ++r) first[r] = r;
  // A column touching rows r1 <= r2 couples them in A Theta A', so every
  // row of the column reaches back to the column's smallest row.
  for (std::size_t j = 0; j < n; ++j) {
    const auto& col = columns[j];
    if (col.empty()) continue;
    std::size_t lowest = m;
    for (const auto& [r, v] : col) lowest = std::min(lowest, r);
    for (const auto& [r, v] : col) first[r] = std::min(first[r], lowest);
  }
}

double EnvelopeCholesky::factor_work(const std::vector<std::size_t>& first,
                                     double cap) {
  double work = 0.0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    const std::size_t fi = first[i];
    std::size_t row = i - fi;  // the diagonal's dot product
    for (std::size_t j = fi; j < i; ++j) row += j - std::max(fi, first[j]);
    work += static_cast<double>(row);
    if (work > cap) break;
  }
  return work;
}

void EnvelopeCholesky::analyze(const SparseColumns& columns, std::size_t n,
                               std::size_t m) {
  ECA_CHECK(m < std::numeric_limits<std::uint32_t>::max(),
            "normal matrix too large for the envelope index");
  m_ = m;
  ok_ = false;
  envelope(columns, n, m, first_);
  start_.resize(m + 1);
  start_[0] = 0;
  for (std::size_t r = 0; r < m; ++r) {
    start_[r + 1] = start_[r] + (r - first_[r] + 1);
  }
  // Counting sort of the off-diagonal entries by column; filling rows in
  // ascending order keeps each column's row list ascending.
  col_start_.assign(m + 1, 0);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = first_[r]; c < r; ++c) ++col_start_[c + 1];
  }
  for (std::size_t c = 0; c < m; ++c) col_start_[c + 1] += col_start_[c];
  col_rows_.resize(col_start_[m]);
  neg_.assign(col_start_.begin(), col_start_.end());  // fill cursors
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = first_[r]; c < r; ++c) {
      col_rows_[neg_[c]++] = static_cast<std::uint32_t>(r);
    }
  }
}

void EnvelopeCholesky::assemble(const SparseColumns& columns, std::size_t n,
                                const Vec& theta, double reg) {
  values_.assign(start_[m_], 0.0);
  ok_ = false;
  // A dense symmetric assembly adds val at (rp, rq) and, for p != q, at
  // (rq, rp): the lower-triangle entry receives it once, or twice when the
  // column repeats a row.
  for (std::size_t j = 0; j < n; ++j) {
    const auto& col = columns[j];
    const double t = theta[j];
    for (std::size_t p = 0; p < col.size(); ++p) {
      for (std::size_t q = p; q < col.size(); ++q) {
        const double val = t * col[p].second * col[q].second;
        const std::size_t rp = col[p].first;
        const std::size_t rq = col[q].first;
        values_[at(std::max(rp, rq), std::min(rp, rq))] += val;
        if (p != q && rp == rq) values_[at(rp, rp)] += val;
      }
    }
  }
  for (std::size_t r = 0; r < m_; ++r) values_[at(r, r)] += reg;
}

bool EnvelopeCholesky::factor() {
  ok_ = false;
  // Row by row (bordering form): entry (i, j) runs the dense column-j step
  // l_ij = (a_ij - Σ_{k<j} l_ik l_jk) / l_jj over k >= max(first[i],
  // first[j]) only. The skipped products lead the sum, and each has a
  // structural +0 factor. An assembled entry is a sum that starts at +0.0,
  // so it is never -0.0, and subtracting a signed zero from it changes
  // nothing.
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t fi = first_[i];
    double* li = &values_[start_[i]];
    for (std::size_t j = fi; j < i; ++j) {
      const std::size_t fj = first_[j];
      const double* lj = &values_[start_[j]];
      const std::size_t k0 = std::max(fi, fj);
      const double* a = li + (k0 - fi);
      const double* b = lj + (k0 - fj);
      double v = li[j - fi];
      for (std::size_t k = 0; k < j - k0; ++k) v -= a[k] * b[k];
      li[j - fi] = v / lj[j - fj];
    }
    double diag = li[i - fi];
    for (std::size_t k = 0; k < i - fi; ++k) diag -= li[k] * li[k];
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    li[i - fi] = std::sqrt(diag);
  }
  ok_ = true;
  return true;
}

void EnvelopeCholesky::solve_in_place(Vec& bx) {
  ECA_CHECK(ok_,
            "EnvelopeCholesky::solve_in_place called before a successful "
            "factor()");
  ECA_CHECK(bx.size() == m_);
  // The dense substitutions subtract 0 * x_k for every structural zero. Each
  // such product is a signed zero, and subtracting -0.0 is adding +0.0: it
  // turns a -0.0 partial sum into +0.0 and leaves every other value alone.
  // Both loops replay that, so signed zeros match the dense solve too.
  //
  // Forward: row i's skipped products are the leading k < first[i].
  std::size_t first_negative = m_;
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t fi = first_[i];
    const double* li = &values_[start_[i]];
    double v = bx[i];
    if (first_negative < fi) v += 0.0;
    for (std::size_t k = fi; k < i; ++k) v -= li[k - fi] * bx[k];
    bx[i] = v / li[i - fi];
    if (first_negative == m_ && std::signbit(bx[i])) first_negative = i;
  }
  // Back substitution over the same buffer, column ii in ascending k: the
  // skipped products sit in the gaps between column ii's stored rows, and
  // neg_ counts the negative x values in any gap.
  neg_[m_] = 0;
  for (std::size_t ii = m_; ii-- > 0;) {
    double v = bx[ii];
    std::size_t gap = ii + 1;
    for (std::size_t p = col_start_[ii]; p < col_start_[ii + 1]; ++p) {
      const std::size_t k = col_rows_[p];
      if (neg_[gap] != neg_[k]) v += 0.0;
      v -= values_[at(k, ii)] * bx[k];
      gap = k + 1;
    }
    if (neg_[gap] != 0) v += 0.0;
    bx[ii] = v / values_[at(ii, ii)];
    neg_[ii] = neg_[ii + 1] + (std::signbit(bx[ii]) ? 1 : 0);
  }
}

}  // namespace eca::linalg
