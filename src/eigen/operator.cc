#include "eigen/operator.h"

#include <algorithm>

#include "util/check.h"
#include "util/thread_pool.h"

namespace spectral {

SparseOperator::SparseOperator(const SparseMatrix* matrix, ThreadPool* pool,
                               int64_t min_parallel_rows)
    : matrix_(matrix), pool_(pool), min_parallel_rows_(min_parallel_rows) {
  SPECTRAL_CHECK(matrix != nullptr);
  SPECTRAL_CHECK_EQ(matrix->rows(), matrix->cols());
}

int64_t SparseOperator::Dim() const { return matrix_->rows(); }

void SparseOperator::Apply(std::span<const double> x,
                           std::span<double> y) const {
  const int64_t rows = matrix_->rows();
  if (pool_ == nullptr || pool_->num_threads() < 2 ||
      rows < min_parallel_rows_) {
    matrix_->MatVec(x, y);
    return;
  }
  // One chunk per worker plus the caller; each chunk covers a disjoint row
  // range, so the partition only decides who computes which rows.
  const int64_t num_chunks = pool_->num_threads() + 1;
  const int64_t chunk_rows = (rows + num_chunks - 1) / num_chunks;
  pool_->ParallelFor(0, num_chunks, 1, [&](int64_t chunk) {
    const int64_t first = chunk * chunk_rows;
    const int64_t last = std::min(rows, first + chunk_rows);
    if (first < last) matrix_->MatVecRows(first, last, x, y);
  });
}

void SparseOperator::ApplyPanel(int64_t width, const double* x, int64_t x_ld,
                                double* y, int64_t y_ld) const {
  const int64_t rows = matrix_->rows();
  if (pool_ == nullptr || pool_->num_threads() < 2 ||
      rows < min_parallel_rows_) {
    matrix_->MatVecRowsPanel(0, rows, width, x, x_ld, y, y_ld);
    return;
  }
  // Same row partition as Apply: each output row is accumulated by exactly
  // one thread in the serial order, so the result is bit-identical to the
  // serial SpMM (and hence to per-column MatVec) for any pool size.
  const int64_t num_chunks = pool_->num_threads() + 1;
  const int64_t chunk_rows = (rows + num_chunks - 1) / num_chunks;
  pool_->ParallelFor(0, num_chunks, 1, [&](int64_t chunk) {
    const int64_t first = chunk * chunk_rows;
    const int64_t last = std::min(rows, first + chunk_rows);
    if (first < last) {
      matrix_->MatVecRowsPanel(first, last, width, x, x_ld, y, y_ld);
    }
  });
}

int64_t SparseOperator::FlopsPerApply() const { return 2 * matrix_->nnz(); }

ShiftNegateOperator::ShiftNegateOperator(const LinearOperator* inner,
                                         double shift)
    : inner_(inner), shift_(shift) {
  SPECTRAL_CHECK(inner != nullptr);
}

int64_t ShiftNegateOperator::Dim() const { return inner_->Dim(); }

void ShiftNegateOperator::Apply(std::span<const double> x,
                                std::span<double> y) const {
  inner_->Apply(x, y);
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = shift_ * x[i] - y[i];
  }
}

void ShiftNegateOperator::ApplyPanel(int64_t width, const double* x,
                                     int64_t x_ld, double* y,
                                     int64_t y_ld) const {
  inner_->ApplyPanel(width, x, x_ld, y, y_ld);
  const double shift = shift_;
  const int64_t n = inner_->Dim();
  // Element-wise, so the row/column walk order is irrelevant to the
  // result; matches Apply's loop value for value.
  for (int64_t j = 0; j < n; ++j) {
    const double* xr = x + j * x_ld;
    double* yw = y + j * y_ld;
    for (int64_t c = 0; c < width; ++c) {
      yw[c] = shift * xr[c] - yw[c];
    }
  }
}

int64_t ShiftNegateOperator::FlopsPerApply() const {
  return inner_->FlopsPerApply() + 2 * inner_->Dim();
}

}  // namespace spectral
