#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace spectral {

SparseMatrix SparseMatrix::FromTriplets(int64_t rows, int64_t cols,
                                        std::vector<Triplet> triplets) {
  SPECTRAL_CHECK_GE(rows, 0);
  SPECTRAL_CHECK_GE(cols, 0);
  for (const Triplet& t : triplets) {
    SPECTRAL_CHECK_GE(t.row, 0);
    SPECTRAL_CHECK_LT(t.row, rows);
    SPECTRAL_CHECK_GE(t.col, 0);
    SPECTRAL_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<size_t>(rows) + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  size_t i = 0;
  while (i < triplets.size()) {
    const int64_t r = triplets[i].row;
    const int64_t c = triplets[i].col;
    double sum = 0.0;
    while (i < triplets.size() && triplets[i].row == r &&
           triplets[i].col == c) {
      sum += triplets[i].value;
      ++i;
    }
    m.col_idx_.push_back(c);
    m.values_.push_back(sum);
    m.row_ptr_[static_cast<size_t>(r) + 1] += 1;
  }
  for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
    m.row_ptr_[r + 1] += m.row_ptr_[r];
  }
  return m;
}

void SparseMatrix::MatVec(std::span<const double> x,
                          std::span<double> y) const {
  MatVecRows(0, rows_, x, y);
}

void SparseMatrix::MatVecRows(int64_t first, int64_t last,
                              std::span<const double> x,
                              std::span<double> y) const {
  SPECTRAL_CHECK_EQ(static_cast<int64_t>(x.size()), cols_);
  SPECTRAL_CHECK_EQ(static_cast<int64_t>(y.size()), rows_);
  SPECTRAL_CHECK_GE(first, 0);
  SPECTRAL_CHECK_LE(first, last);
  SPECTRAL_CHECK_LE(last, rows_);
  for (int64_t i = first; i < last; ++i) {
    double acc = 0.0;
    for (int64_t k = row_begin(i); k < row_end(i); ++k) {
      acc += values_[static_cast<size_t>(k)] *
             x[static_cast<size_t>(col_idx_[static_cast<size_t>(k)])];
    }
    y[static_cast<size_t>(i)] = acc;
  }
}

namespace {

// Fixed-width row kernel behind MatVecRowsPanel: the W accumulators live in
// registers (no y round trip per nonzero), and each lane still sums its
// row's nonzeros in ascending-k order — exactly MatVecRows' order — so the
// result stays bit-identical to per-column MatVec while the independent
// lanes vectorize. No __restrict on x/y: callers may pass panels of the
// same backing buffer (always disjoint column ranges).
template <int W>
void MatVecRowsPanelFixed(const int64_t* __restrict row_ptr,
                          const int64_t* __restrict col_idx,
                          const double* __restrict values, int64_t first,
                          int64_t last, const double* x, int64_t x_ld,
                          double* y, int64_t y_ld) {
  for (int64_t i = first; i < last; ++i) {
    double acc[W] = {};
    for (int64_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const double v = values[k];
      const double* xr = x + col_idx[k] * x_ld;
      for (int c = 0; c < W; ++c) acc[c] += v * xr[c];
    }
    double* yr = y + i * y_ld;
    for (int c = 0; c < W; ++c) yr[c] = acc[c];
  }
}

}  // namespace

void SparseMatrix::MatVecRowsPanel(int64_t first, int64_t last, int64_t width,
                                   const double* x, int64_t x_ld, double* y,
                                   int64_t y_ld) const {
  SPECTRAL_CHECK_GE(width, 1);
  SPECTRAL_CHECK_GE(x_ld, width);
  SPECTRAL_CHECK_GE(y_ld, width);
  SPECTRAL_CHECK_GE(first, 0);
  SPECTRAL_CHECK_LE(first, last);
  SPECTRAL_CHECK_LE(last, rows_);
  const int64_t* rp = row_ptr_.data();
  const int64_t* ci = col_idx_.data();
  const double* vv = values_.data();
  switch (width) {
    case 1:
      return MatVecRowsPanelFixed<1>(rp, ci, vv, first, last, x, x_ld, y,
                                     y_ld);
    case 2:
      return MatVecRowsPanelFixed<2>(rp, ci, vv, first, last, x, x_ld, y,
                                     y_ld);
    case 3:
      return MatVecRowsPanelFixed<3>(rp, ci, vv, first, last, x, x_ld, y,
                                     y_ld);
    case 4:
      return MatVecRowsPanelFixed<4>(rp, ci, vv, first, last, x, x_ld, y,
                                     y_ld);
    case 5:
      return MatVecRowsPanelFixed<5>(rp, ci, vv, first, last, x, x_ld, y,
                                     y_ld);
    case 6:
      return MatVecRowsPanelFixed<6>(rp, ci, vv, first, last, x, x_ld, y,
                                     y_ld);
    case 7:
      return MatVecRowsPanelFixed<7>(rp, ci, vv, first, last, x, x_ld, y,
                                     y_ld);
    case 8:
      return MatVecRowsPanelFixed<8>(rp, ci, vv, first, last, x, x_ld, y,
                                     y_ld);
    default:
      break;
  }
  // Wide fallback (no hot path uses width > 8): same per-lane k-order.
  for (int64_t i = first; i < last; ++i) {
    double* yr = y + i * y_ld;
    for (int64_t c = 0; c < width; ++c) yr[c] = 0.0;
    for (int64_t k = row_begin(i); k < row_end(i); ++k) {
      const double v = values_[static_cast<size_t>(k)];
      const double* xr = x + col_idx_[static_cast<size_t>(k)] * x_ld;
      for (int64_t c = 0; c < width; ++c) yr[c] += v * xr[c];
    }
  }
}

double SparseMatrix::GershgorinBound() const {
  double bound = 0.0;
  for (int64_t i = 0; i < rows_; ++i) {
    double row_sum = 0.0;
    for (int64_t k = row_begin(i); k < row_end(i); ++k) {
      row_sum += std::fabs(values_[static_cast<size_t>(k)]);
    }
    bound = std::max(bound, row_sum);
  }
  return bound;
}

double SparseMatrix::SymmetryError() const {
  SPECTRAL_CHECK_EQ(rows_, cols_);
  // Probe A^T lazily: for each entry (i, j, v) find (j, i) by binary search.
  double err = 0.0;
  for (int64_t i = 0; i < rows_; ++i) {
    for (int64_t k = row_begin(i); k < row_end(i); ++k) {
      const int64_t j = col(k);
      // Find entry (j, i).
      const auto begin = col_idx_.begin() + row_begin(j);
      const auto end = col_idx_.begin() + row_end(j);
      const auto it = std::lower_bound(begin, end, i);
      double transposed = 0.0;
      if (it != end && *it == i) {
        transposed = values_[static_cast<size_t>(it - col_idx_.begin())];
      }
      err = std::max(err, std::fabs(value(k) - transposed));
    }
  }
  return err;
}

Vector SparseMatrix::Diagonal() const {
  Vector diag(static_cast<size_t>(std::min(rows_, cols_)), 0.0);
  for (int64_t i = 0; i < static_cast<int64_t>(diag.size()); ++i) {
    for (int64_t k = row_begin(i); k < row_end(i); ++k) {
      if (col(k) == i) diag[static_cast<size_t>(i)] += value(k);
    }
  }
  return diag;
}

}  // namespace spectral
