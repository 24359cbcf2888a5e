// Compressed sparse row (CSR) matrix. This is the workhorse representation
// for graph Laplacians: the Lanczos eigensolver only needs y = A x.

#ifndef SPECTRAL_LPM_LINALG_SPARSE_MATRIX_H_
#define SPECTRAL_LPM_LINALG_SPARSE_MATRIX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/vector_ops.h"

namespace spectral {

/// One nonzero entry for matrix assembly.
struct Triplet {
  int64_t row = 0;
  int64_t col = 0;
  double value = 0.0;
};

/// Immutable CSR matrix. Build with FromTriplets (duplicates are summed).
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Assembles a rows x cols CSR matrix from unordered triplets. Duplicate
  /// (row, col) entries are summed; entries that sum to exactly zero are
  /// kept (harmless and keeps assembly deterministic).
  static SparseMatrix FromTriplets(int64_t rows, int64_t cols,
                                   std::vector<Triplet> triplets);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  /// First index into col()/value() for row i.
  int64_t row_begin(int64_t i) const {
    return row_ptr_[static_cast<size_t>(i)];
  }
  /// One past the last index for row i.
  int64_t row_end(int64_t i) const {
    return row_ptr_[static_cast<size_t>(i) + 1];
  }
  int64_t col(int64_t k) const { return col_idx_[static_cast<size_t>(k)]; }
  double value(int64_t k) const { return values_[static_cast<size_t>(k)]; }

  /// y = A x.
  void MatVec(std::span<const double> x, std::span<double> y) const;

  /// Computes y[i] = (A x)[i] for rows i in [first, last) only; the rest of
  /// y is untouched. Each y[i] is accumulated exactly as in MatVec, so a
  /// row partition of [0, rows) reproduces MatVec bit for bit — this is the
  /// building block of the parallel operator in eigen/operator.h.
  void MatVecRows(int64_t first, int64_t last, std::span<const double> x,
                  std::span<double> y) const;

  /// Multi-vector matvec (SpMM) on row-major panels with leading
  /// dimensions: x[j * x_ld + c] is column c of row j (c < width <= x_ld),
  /// so a panel of a larger packed basis (linalg/packed_basis.h) is
  /// consumed in place. Computes y[i * y_ld + c] = (A x_c)[i] for rows i in
  /// [first, last) in ONE pass over the matrix: each row's nonzeros are
  /// loaded once and applied to all `width` columns, which makes block
  /// Krylov matvecs memory-bound on the block, not the matrix. Per (row,
  /// column) the accumulation order over the row's nonzeros is exactly
  /// MatVec's, so the result is bit-identical to `width` independent MatVec
  /// calls, and a row partition of [0, rows) reproduces the serial result
  /// bit for bit (the parallel operator in eigen/operator.h builds on this).
  void MatVecRowsPanel(int64_t first, int64_t last, int64_t width,
                       const double* x, int64_t x_ld, double* y,
                       int64_t y_ld) const;

  /// max over i of |A_ii| + sum_j |A_ij| — a Gershgorin bound on the
  /// spectral radius for symmetric matrices.
  double GershgorinBound() const;

  /// max |A - A^T| entry; zero for symmetric matrices.
  double SymmetryError() const;

  /// Diagonal entries as a vector (zeros where absent).
  Vector Diagonal() const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> row_ptr_ = {0};
  std::vector<int64_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace spectral

#endif  // SPECTRAL_LPM_LINALG_SPARSE_MATRIX_H_
