#include "linalg/envelope_cholesky.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace eca::linalg {
namespace {

// Two doubles side by side: each lane's multiply and subtract are the
// scalar IEEE operations. A block's kBlockRows lanes are kPairs of them.
using Pair = double __attribute__((vector_size(2 * sizeof(double))));
constexpr std::size_t kPairs = EnvelopeCholesky::kBlockRows / 2;
static_assert(EnvelopeCholesky::kBlockRows % 2 == 0);

// The block's lanes at one panel column.
struct Lanes {
  Pair pair[kPairs];

  void load(const double* column) {
    for (std::size_t q = 0; q < kPairs; ++q) {
      std::memcpy(&pair[q], column + 2 * q, sizeof(Pair));
    }
  }
  void store(double* column) const {
    for (std::size_t q = 0; q < kPairs; ++q) {
      std::memcpy(column + 2 * q, &pair[q], sizeof(Pair));
    }
  }
  void divide(double d) {
    for (Pair& q : pair) q /= d;
  }
  // this -= column * b, lane by lane.
  void subtract_scaled(const double* column, double b) {
    for (std::size_t q = 0; q < kPairs; ++q) {
      Pair c{};
      std::memcpy(&c, column + 2 * q, sizeof c);
      pair[q] -= c * b;
    }
  }
};

}  // namespace

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
  std::size_t widest = 0;
  for (std::size_t i0 = 0; i0 < m; i0 += kBlockRows) {
    const std::size_t i1 = std::min(i0 + kBlockRows, m);
    const std::size_t base =
        *std::min_element(first_.begin() + i0, first_.begin() + i1);
    widest = std::max(widest, i1 - base);
  }
  panel_.resize(widest * kBlockRows);
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
  // Row by row (bordering form), entry (i, j) runs the dense column-j step
  // l_ij = (a_ij - Σ_{k<j} l_ik l_jk) / l_jj. A dense factor's entries
  // outside the envelope are +0, and an assembled entry is a sum that
  // starts at +0.0, so it is never -0.0; a chain that starts from it and
  // subtracts products is never -0.0 either, and subtracting a signed zero
  // from it changes nothing. A chain may therefore skip or add products
  // with a structural +0 factor (as long as the other factor is finite),
  // which is what makes every entry below bitwise equal to the dense one.
  //
  // One chain at a time runs at the latency of a dependent subtraction, so
  // rows go in blocks of kBlockRows, copied into panel_ with zeros outside
  // their envelopes: panel_[(k - base) * kBlockRows + r] is row i0 + r at
  // column k. Each entry's own chain still starts from the assembled value
  // and subtracts its products in ascending k, but the chains of a block's
  // rows run side by side:
  //   1. every entry left of the block (j < i0): its whole chain, all rows
  //      at once, then the division by l_jj;
  //   2. every in-block entry and diagonal: its k < i0 prefix, all rows at
  //      once;
  //   3. the in-block tails k >= i0, row by row, in the serial order.
  // Steps 1 and 2 start every row at the block's smallest first row, and
  // the zeros in front of a row's own envelope multiply finite entries of
  // finished rows. A row that overflows fails its own diagonal check in
  // step 3 before any row after it is used.
  constexpr std::size_t R = kBlockRows;
  for (std::size_t i0 = 0; i0 < m_; i0 += R) {
    const std::size_t i1 = std::min(i0 + R, m_);
    std::size_t base = i0;
    for (std::size_t i = i0; i < i1; ++i) base = std::min(base, first_[i]);
    const auto cell = [&](std::size_t k, std::size_t r) {
      return (k - base) * R + r;
    };
    std::fill_n(panel_.begin(), (i1 - base) * R, 0.0);
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t k = first_[i]; k <= i; ++k) {
        panel_[cell(k, i - i0)] = values_[at(i, k)];
      }
    }
    // Step 1, two columns at a time: both chains read each panel column
    // once, and column c + 1's last product needs column c's result.
    std::size_t c = base;
    for (; c + 1 < i0; c += 2) {
      const std::size_t a0 = std::max(base, first_[c]);
      const std::size_t b0 = std::max(base, first_[c + 1]);
      const std::size_t both = std::min(std::max(a0, b0), c);
      const std::size_t la = start_[c] - first_[c];  // l_ck = values_[la + k]
      const std::size_t lb = start_[c + 1] - first_[c + 1];
      Lanes a{};
      Lanes b{};
      a.load(&panel_[cell(c, 0)]);
      b.load(&panel_[cell(c + 1, 0)]);
      for (std::size_t k = a0; k < both; ++k) {
        a.subtract_scaled(&panel_[cell(k, 0)], values_[la + k]);
      }
      for (std::size_t k = b0; k < both; ++k) {
        b.subtract_scaled(&panel_[cell(k, 0)], values_[lb + k]);
      }
      for (std::size_t k = both; k < c; ++k) {
        const double* const column = &panel_[cell(k, 0)];
        a.subtract_scaled(column, values_[la + k]);
        b.subtract_scaled(column, values_[lb + k]);
      }
      a.divide(values_[la + c]);
      a.store(&panel_[cell(c, 0)]);
      if (b0 <= c) b.subtract_scaled(&panel_[cell(c, 0)], values_[lb + c]);
      b.divide(values_[lb + c + 1]);
      b.store(&panel_[cell(c + 1, 0)]);
    }
    if (c < i0) {
      const std::size_t lc = start_[c] - first_[c];
      Lanes a{};
      a.load(&panel_[cell(c, 0)]);
      for (std::size_t k = std::max(base, first_[c]); k < c; ++k) {
        a.subtract_scaled(&panel_[cell(k, 0)], values_[lc + k]);
      }
      a.divide(values_[lc + c]);
      a.store(&panel_[cell(c, 0)]);
    }
    // Step 2: l_jk from the panel's lane j - i0.
    for (std::size_t j = i0; j < i1; ++j) {
      Lanes v{};
      v.load(&panel_[cell(j, 0)]);
      for (std::size_t k = std::max(base, first_[j]); k < i0; ++k) {
        const double* const column = &panel_[cell(k, 0)];
        v.subtract_scaled(column, column[j - i0]);
      }
      v.store(&panel_[cell(j, 0)]);
    }
    // Step 3: row i's diagonal is checked before any later row is used.
    for (std::size_t i = i0; i < i1; ++i) {
      const std::size_t fi = first_[i];
      const std::size_t r = i - i0;
      for (std::size_t j = std::max(fi, i0); j <= i; ++j) {
        const std::size_t rj = j - i0;
        double v = panel_[cell(j, r)];
        for (std::size_t k = std::max({fi, first_[j], i0}); k < j; ++k) {
          v -= panel_[cell(k, r)] * panel_[cell(k, rj)];
        }
        if (j < i) {
          panel_[cell(j, r)] = v / panel_[cell(j, rj)];
        } else {
          if (v <= 0.0 || !std::isfinite(v)) return false;
          panel_[cell(i, r)] = std::sqrt(v);
        }
      }
    }
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t k = first_[i]; k <= i; ++k) {
        values_[at(i, k)] = panel_[cell(k, i - i0)];
      }
    }
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
  // Forward: row i's skipped products are the leading k < first[i]. Adding
  // +0.0 anywhere in a chain gives what adding it first gives (a chain
  // leaves -0.0 at its first product that is nonzero or -0.0 and never
  // returns), so the replay runs when row i finishes. Rows go in blocks of
  // kBlockRows as in factor(): the k < i0 part of every row of the block
  // runs as interleaved chains, then the in-block tails row by row.
  constexpr std::size_t R = kBlockRows;
  std::size_t first_negative = m_;
  for (std::size_t i0 = 0; i0 < m_; i0 += R) {
    const std::size_t i1 = std::min(i0 + R, m_);
    // Row i's entry at column k is values_[row[i - i0] + k].
    std::size_t row[R] = {};
    double v[R] = {};
    // The k < i0 columns every row of the block stores start at `shared`;
    // each row's own columns before it go first, one row at a time.
    std::size_t shared = 0;
    for (std::size_t i = i0; i < i1; ++i) {
      shared = std::max(shared, std::min(first_[i], i0));
    }
    for (std::size_t i = i0; i < i1; ++i) {
      row[i - i0] = start_[i] - first_[i];
      double vi = bx[i];
      for (std::size_t k = first_[i]; k < shared; ++k) {
        vi -= values_[row[i - i0] + k] * bx[k];
      }
      v[i - i0] = vi;
    }
    // Lanes past the last row repeat the first row's chain, unused.
    for (std::size_t r = i1 - i0; r < R; ++r) {
      row[r] = row[0];
      v[r] = v[0];
    }
    for (std::size_t k = shared; k < i0; ++k) {
      const double x = bx[k];
      for (std::size_t r = 0; r < R; ++r) v[r] -= values_[row[r] + k] * x;
    }
    for (std::size_t i = i0; i < i1; ++i) {
      const std::size_t fi = first_[i];
      double vi = v[i - i0];
      for (std::size_t k = std::max(fi, i0); k < i; ++k) {
        vi -= values_[row[i - i0] + k] * bx[k];
      }
      if (first_negative < fi) vi += 0.0;
      bx[i] = vi / values_[row[i - i0] + i];
      if (first_negative == m_ && std::signbit(bx[i])) first_negative = i;
    }
  }
  // Back substitution over the same buffer, column ii in ascending k: the
  // skipped products sit in the gaps between column ii's stored rows, and
  // neg_ counts the negative x values in any gap. Unlike the forward
  // chains these are not blocked: x_ii's chain usually starts with x_{ii+1},
  // the value finished just before it, so no two chains can overlap.
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
