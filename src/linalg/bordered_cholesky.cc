#include "linalg/bordered_cholesky.h"

#include <algorithm>
#include <cmath>

namespace eca::linalg {

std::size_t BorderedCholesky::diagonal_prefix(const SparseColumns& columns,
                                              std::size_t m) {
  // A column touching rows r1 <= r2 couples them in A Theta A', so the
  // diagonal prefix ends at its second row.
  std::size_t d = m;
  for (const auto& col : columns) {
    std::size_t first = m;
    std::size_t second = m;
    for (const auto& [r, v] : col) {
      if (r < first) {
        second = first;
        first = r;
      } else if (r < second) {
        second = r;
      }
    }
    d = std::min(d, second);
  }
  return d;
}

void BorderedCholesky::assemble(const SparseColumns& columns, std::size_t n,
                                std::size_t m, std::size_t d,
                                const Vec& theta, double reg) {
  ECA_CHECK(d <= m, "diagonal block larger than the matrix");
  m_ = m;
  d_ = d;
  diag_.assign(d, 0.0);
  panel_.assign((m - d) * m, 0.0);
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
        add(std::max(rp, rq), std::min(rp, rq), val);
        if (p != q && rp == rq) add(rp, rp, val);
      }
    }
  }
  for (std::size_t r = 0; r < m; ++r) add(r, r, reg);
}

bool BorderedCholesky::factor() {
  ok_ = false;
  const std::size_t s = m_ - d_;
  // Diagonal-block columns: every product with an earlier column of the
  // block is a structural zero, so l_jj = sqrt(a_jj) and the border column
  // below is a_ij / l_jj, exactly as the dense factor computes them.
  for (std::size_t j = 0; j < d_; ++j) {
    const double diag = diag_[j];
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    diag_[j] = ljj;
    for (std::size_t i = 0; i < s; ++i) panel_[i * m_ + j] /= ljj;
  }
  // Trailing columns: dense left-looking steps over full panel rows.
  for (std::size_t jj = 0; jj < s; ++jj) {
    const std::size_t j = d_ + jj;
    double* lj = &panel_[jj * m_];
    double diag = lj[j];
    for (std::size_t k = 0; k < j; ++k) diag -= lj[k] * lj[k];
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    lj[j] = ljj;
    for (std::size_t ii = jj + 1; ii < s; ++ii) {
      double* li = &panel_[ii * m_];
      double v = li[j];
      for (std::size_t k = 0; k < j; ++k) v -= li[k] * lj[k];
      li[j] = v / ljj;
    }
  }
  ok_ = true;
  return true;
}

void BorderedCholesky::solve_in_place(Vec& bx) const {
  ECA_CHECK(ok_,
            "BorderedCholesky::solve_in_place called before a successful "
            "factor()");
  ECA_CHECK(bx.size() == m_);
  // The dense substitutions subtract 0 * x_k for every structural zero. Each
  // such product is a signed zero, and subtracting -0.0 is adding +0.0: it
  // turns a -0.0 partial sum into +0.0 and leaves every other value alone.
  // `negative_seen` replays that, so signed zeros match the dense solve too.
  bool negative_seen = false;
  for (std::size_t i = 0; i < d_; ++i) {
    double v = bx[i];
    if (negative_seen) v += 0.0;
    bx[i] = v / diag_[i];
    negative_seen = negative_seen || std::signbit(bx[i]);
  }
  for (std::size_t i = d_; i < m_; ++i) {
    const double* li = &panel_[(i - d_) * m_];
    double v = bx[i];
    for (std::size_t k = 0; k < i; ++k) v -= li[k] * bx[k];
    bx[i] = v / li[i];
  }
  // Back substitution over the same buffer.
  for (std::size_t ii = m_; ii-- > d_;) {
    double v = bx[ii];
    for (std::size_t k = ii + 1; k < m_; ++k) {
      v -= panel_[(k - d_) * m_ + ii] * bx[k];
    }
    bx[ii] = v / panel_[(ii - d_) * m_ + ii];
  }
  negative_seen = false;
  for (std::size_t ii = d_; ii-- > 0;) {
    double v = bx[ii];
    if (negative_seen) v += 0.0;  // the zeros k in (ii, d) come first
    for (std::size_t k = d_; k < m_; ++k) {
      v -= panel_[(k - d_) * m_ + ii] * bx[k];
    }
    bx[ii] = v / diag_[ii];
    negative_seen = negative_seen || std::signbit(bx[ii]);
  }
}

}  // namespace eca::linalg
