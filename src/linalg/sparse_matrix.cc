#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"
#include "linalg/dense_matrix.h"

namespace eca::linalg {

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols,
                           const std::vector<Triplet>& triplets)
    : rows_(rows), cols_(cols) {
  // Single range check over the whole batch instead of one assert per
  // triplet: track the extrema in one sweep and fail once.
  std::size_t max_row = 0, max_col = 0;
  for (const auto& t : triplets) {
    max_row = std::max(max_row, t.row);
    max_col = std::max(max_col, t.col);
  }
  ECA_CHECK(triplets.empty() || (max_row < rows && max_col < cols),
            "triplet out of range");
  std::vector<std::size_t> counts(rows + 1, 0);
  for (const auto& t : triplets) ++counts[t.row + 1];
  row_start_.assign(rows + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    row_start_[r + 1] = row_start_[r] + counts[r + 1];
  }
  col_index_.resize(triplets.size());
  values_.resize(triplets.size());
  std::vector<std::size_t> cursor(row_start_.begin(), row_start_.end() - 1);
  for (const auto& t : triplets) {
    const std::size_t slot = cursor[t.row]++;
    col_index_[slot] = t.col;
    values_[slot] = t.value;
  }
  // Sort within each row and merge duplicates.
  std::vector<std::size_t> order;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t begin = row_start_[r];
    const std::size_t end = cursor[r];
    order.resize(end - begin);
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = begin + k;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return col_index_[a] < col_index_[b];
    });
    std::vector<std::size_t> cols_sorted(order.size());
    std::vector<double> vals_sorted(order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      cols_sorted[k] = col_index_[order[k]];
      vals_sorted[k] = values_[order[k]];
    }
    std::copy(cols_sorted.begin(), cols_sorted.end(),
              col_index_.begin() + static_cast<std::ptrdiff_t>(begin));
    std::copy(vals_sorted.begin(), vals_sorted.end(),
              values_.begin() + static_cast<std::ptrdiff_t>(begin));
  }
  // Merge duplicate (row, col) entries by summation.
  std::size_t write = 0;
  std::vector<std::size_t> new_start(rows + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    new_start[r] = write;
    std::size_t k = row_start_[r];
    const std::size_t end = row_start_[r + 1];
    while (k < end) {
      const std::size_t col = col_index_[k];
      double acc = 0.0;
      while (k < end && col_index_[k] == col) acc += values_[k++];
      col_index_[write] = col;
      values_[write] = acc;
      ++write;
    }
  }
  new_start[rows] = write;
  row_start_ = std::move(new_start);
  col_index_.resize(write);
  values_.resize(write);

  // One-time CSC mirror via counting sort over the deduped CSR. Walking
  // rows in order fills each column's slice with ascending row indices —
  // the fixed gather order every multiply_transpose variant uses.
  col_start_.assign(cols + 1, 0);
  for (std::size_t k = 0; k < write; ++k) ++col_start_[col_index_[k] + 1];
  for (std::size_t j = 0; j < cols; ++j) col_start_[j + 1] += col_start_[j];
  csc_row_.resize(write);
  csc_values_.resize(write);
  std::vector<std::size_t> col_cursor(col_start_.begin(),
                                      col_start_.end() - 1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      const std::size_t slot = col_cursor[col_index_[k]]++;
      csc_row_[slot] = r;
      csc_values_[slot] = values_[k];
    }
  }
}

template <typename Fn>
void SparseMatrix::for_each_part(ThreadPool* pool,
                                 const PartitionBounds& bounds,
                                 const Fn& fn) const {
  const std::size_t parts = bounds.empty() ? 0 : bounds.size() - 1;
  if (pool == nullptr || parts <= 1) {
    for (std::size_t p = 0; p < parts; ++p) fn(p);
    return;
  }
  pool->run_indexed(parts, [&](std::size_t p) { fn(p); });
}

void SparseMatrix::multiply_range(const Vec& x, Vec& out, std::size_t r0,
                                  std::size_t r1) const {
  ECA_DCHECK(x.size() == cols_ && out.size() == rows_ && r1 <= rows_);
  const double* __restrict xs = x.data();
  for (std::size_t r = r0; r < r1; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      acc += values_[k] * xs[col_index_[k]];
    }
    out[r] = acc;
  }
}

void SparseMatrix::multiply(const Vec& x, Vec& out) const {
  out.resize(rows_);
  multiply_range(x, out, 0, rows_);
}

void SparseMatrix::multiply(const Vec& x, Vec& out, ThreadPool* pool,
                            const PartitionBounds& row_bounds) const {
  out.resize(rows_);
  for_each_part(pool, row_bounds, [&](std::size_t p) {
    multiply_range(x, out, row_bounds[p], row_bounds[p + 1]);
  });
}

void SparseMatrix::multiply_transpose_range(const Vec& y, Vec& out,
                                            std::size_t j0,
                                            std::size_t j1) const {
  ECA_DCHECK(y.size() == rows_ && out.size() == cols_ && j1 <= cols_);
  const double* __restrict ys = y.data();
  for (std::size_t j = j0; j < j1; ++j) {
    double acc = 0.0;
    for (std::size_t k = col_start_[j]; k < col_start_[j + 1]; ++k) {
      acc += csc_values_[k] * ys[csc_row_[k]];
    }
    out[j] = acc;
  }
}

void SparseMatrix::multiply_transpose(const Vec& y, Vec& out) const {
  out.resize(cols_);
  multiply_transpose_range(y, out, 0, cols_);
}

void SparseMatrix::multiply_transpose(const Vec& y, Vec& out,
                                      ThreadPool* pool,
                                      const PartitionBounds& col_bounds) const {
  out.resize(cols_);
  for_each_part(pool, col_bounds, [&](std::size_t p) {
    multiply_transpose_range(y, out, col_bounds[p], col_bounds[p + 1]);
  });
}

namespace {

PartitionBounds full_range(std::size_t extent) { return {0, extent}; }

}  // namespace

void SparseMatrix::row_inf_norms(Vec& out, ThreadPool* pool,
                                 const PartitionBounds& row_bounds) const {
  out.resize(rows_);
  for_each_part(pool, row_bounds, [&](std::size_t p) {
    for (std::size_t r = row_bounds[p]; r < row_bounds[p + 1]; ++r) {
      double m = 0.0;
      for (std::size_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
        m = std::max(m, std::abs(values_[k]));
      }
      out[r] = m;
    }
  });
}

Vec SparseMatrix::row_inf_norms() const {
  Vec out;
  row_inf_norms(out, nullptr, full_range(rows_));
  return out;
}

void SparseMatrix::col_inf_norms(Vec& out, ThreadPool* pool,
                                 const PartitionBounds& col_bounds) const {
  out.resize(cols_);
  for_each_part(pool, col_bounds, [&](std::size_t p) {
    for (std::size_t j = col_bounds[p]; j < col_bounds[p + 1]; ++j) {
      double m = 0.0;
      for (std::size_t k = col_start_[j]; k < col_start_[j + 1]; ++k) {
        m = std::max(m, std::abs(csc_values_[k]));
      }
      out[j] = m;
    }
  });
}

Vec SparseMatrix::col_inf_norms() const {
  Vec out;
  col_inf_norms(out, nullptr, full_range(cols_));
  return out;
}

void SparseMatrix::row_power_sums(double p, Vec& out, ThreadPool* pool,
                                  const PartitionBounds& row_bounds) const {
  out.resize(rows_);
  for_each_part(pool, row_bounds, [&](std::size_t part) {
    for (std::size_t r = row_bounds[part]; r < row_bounds[part + 1]; ++r) {
      double acc = 0.0;
      for (std::size_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
        acc += std::pow(std::abs(values_[k]), p);
      }
      out[r] = acc;
    }
  });
}

Vec SparseMatrix::row_power_sums(double p) const {
  Vec out;
  row_power_sums(p, out, nullptr, full_range(rows_));
  return out;
}

void SparseMatrix::col_power_sums(double p, Vec& out, ThreadPool* pool,
                                  const PartitionBounds& col_bounds) const {
  out.resize(cols_);
  for_each_part(pool, col_bounds, [&](std::size_t part) {
    for (std::size_t j = col_bounds[part]; j < col_bounds[part + 1]; ++j) {
      double acc = 0.0;
      for (std::size_t k = col_start_[j]; k < col_start_[j + 1]; ++k) {
        acc += std::pow(std::abs(csc_values_[k]), p);
      }
      out[j] = acc;
    }
  });
}

Vec SparseMatrix::col_power_sums(double p) const {
  Vec out;
  col_power_sums(p, out, nullptr, full_range(cols_));
  return out;
}

void SparseMatrix::scale(const Vec& row_scale, const Vec& col_scale,
                         ThreadPool* pool, const PartitionBounds& row_bounds,
                         const PartitionBounds& col_bounds) {
  ECA_CHECK(row_scale.size() == rows_ && col_scale.size() == cols_);
  // Both representations are rescaled in place (disjoint slices per part),
  // keeping the one-time CSC conversion valid across every Ruiz pass.
  for_each_part(pool, row_bounds, [&](std::size_t p) {
    for (std::size_t r = row_bounds[p]; r < row_bounds[p + 1]; ++r) {
      for (std::size_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
        values_[k] *= row_scale[r] * col_scale[col_index_[k]];
      }
    }
  });
  for_each_part(pool, col_bounds, [&](std::size_t p) {
    for (std::size_t j = col_bounds[p]; j < col_bounds[p + 1]; ++j) {
      for (std::size_t k = col_start_[j]; k < col_start_[j + 1]; ++k) {
        csc_values_[k] *= row_scale[csc_row_[k]] * col_scale[j];
      }
    }
  });
}

void SparseMatrix::scale(const Vec& row_scale, const Vec& col_scale) {
  scale(row_scale, col_scale, nullptr, full_range(rows_), full_range(cols_));
}

double SparseMatrix::spectral_norm_estimate(
    int iterations, ThreadPool* pool, const PartitionBounds& row_bounds,
    const PartitionBounds& col_bounds) const {
  if (nnz() == 0) return 0.0;
  Vec v(cols_, 1.0 / std::sqrt(static_cast<double>(cols_)));
  Vec av(rows_);
  Vec atav(cols_);
  double sigma = 0.0;
  for (int it = 0; it < iterations; ++it) {
    multiply(v, av, pool, row_bounds);
    multiply_transpose(av, atav, pool, col_bounds);
    const double n = norm2(atav);
    if (n == 0.0) return 0.0;
    for (std::size_t i = 0; i < cols_; ++i) v[i] = atav[i] / n;
    sigma = std::sqrt(n);
  }
  return sigma;
}

double SparseMatrix::spectral_norm_estimate(int iterations) const {
  return spectral_norm_estimate(iterations, nullptr, full_range(rows_),
                                full_range(cols_));
}

namespace {

// Nonzero-balanced boundaries over a cumulative-count array (row_start_ or
// col_start_): boundary p is the first index whose cumulative count reaches
// p/parts of the total.
PartitionBounds balance_by_prefix(const std::vector<std::size_t>& start,
                                  std::size_t extent, std::size_t parts) {
  PartitionBounds bounds(parts + 1, 0);
  bounds[parts] = extent;
  const std::size_t total = start.empty() ? 0 : start.back();
  for (std::size_t p = 1; p < parts; ++p) {
    const std::size_t target = total * p / parts;
    const auto it = std::lower_bound(start.begin(),
                                     start.begin() +
                                         static_cast<std::ptrdiff_t>(extent),
                                     target);
    bounds[p] = static_cast<std::size_t>(it - start.begin());
  }
  // Boundaries must be non-decreasing (empty ranges are legal).
  for (std::size_t p = 1; p <= parts; ++p) {
    bounds[p] = std::max(bounds[p], bounds[p - 1]);
  }
  return bounds;
}

}  // namespace

PartitionBounds SparseMatrix::balanced_row_partition(
    std::size_t parts, const std::vector<std::size_t>& align) const {
  const std::size_t p = std::max<std::size_t>(1, parts);
  PartitionBounds bounds = balance_by_prefix(row_start_, rows_, p);
  if (!align.empty()) {
    // Snap interior boundaries to the nearest structural block start so no
    // part straddles a partial block (the offline LP's per-cloud row
    // blocks: a worker's cloud rows then read only its clouds' columns).
    for (std::size_t i = 1; i + 1 < bounds.size(); ++i) {
      const auto it =
          std::lower_bound(align.begin(), align.end(), bounds[i]);
      std::size_t snapped = bounds[i];
      if (it != align.end() && (it == align.begin() ||
                                *it - bounds[i] <= bounds[i] - *(it - 1))) {
        snapped = *it;
      } else if (it != align.begin()) {
        snapped = *(it - 1);
      }
      if (snapped <= rows_) bounds[i] = snapped;
    }
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      bounds[i] = std::max(bounds[i], bounds[i - 1]);
    }
    bounds.back() = rows_;
  }
  return bounds;
}

PartitionBounds SparseMatrix::balanced_col_partition(std::size_t parts) const {
  return balance_by_prefix(col_start_, cols_,
                           std::max<std::size_t>(1, parts));
}

DenseMatrix SparseMatrix::to_dense() const {
  DenseMatrix out(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      out(r, col_index_[k]) += values_[k];
    }
  }
  return out;
}

}  // namespace eca::linalg
