// Packed column-panel storage for block Krylov bases, plus the strided
// kernels that let the whole block Lanczos iteration (growth, BCGS2
// reorthogonalization, Rayleigh-Ritz H-fill, Chebyshev filtering) run
// directly on the packed layout with zero pack/unpack round trips.
//
// Layout: row-major with a fixed leading dimension (`ld`) chosen once at
// Reset() time — element (row r, column c) lives at data[r * ld + c], so
// any group of consecutive columns is a contiguous panel per row. This is
// exactly the layout SparseMatrix::MatVecRowsPanel and the fixed-width
// Gram/multi-AXPY kernels consume, which is what makes the basis storage
// itself the SpMM operand: growing the basis never copies a column.
//
// Numerical contract: every kernel in this header reproduces, bit for
// bit, the arithmetic of the corresponding vector_ops.h / block_ops.h
// kernel on std::vector<Vector> columns — same accumulation order
// (ascending row index per coefficient, ascending panel lane per
// element), same two-pass BCGS2 structure, same drop rules. The unpacked
// block_ops.h kernels stay as the reference these are tested against
// (and as the warm start's kernels on its one small block); the block
// solver and bench_eigensolver's kernel rows run the packed ones.
// Parallelism is only ever across independent output columns, gated by
// the shared kMinParallelWork threshold, so results are byte-identical
// for any pool size including none.

#ifndef SPECTRAL_LPM_LINALG_PACKED_BASIS_H_
#define SPECTRAL_LPM_LINALG_PACKED_BASIS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/block_ops.h"
#include "linalg/vector_ops.h"
#include "util/thread_pool.h"

namespace spectral {

/// A block of equal-length column vectors stored as one contiguous
/// row-major buffer with a fixed leading dimension. Columns are cheap
/// views (offsets), never owning allocations; the buffer is sized once
/// and reused across solver restarts.
class PackedBasis {
 public:
  PackedBasis() = default;

  /// (Re)allocates storage for `rows` x `capacity` and fixes the leading
  /// dimension at `capacity`. Existing contents are discarded. Idempotent
  /// when the geometry is unchanged (no reallocation, contents kept).
  void Reset(int64_t rows, int64_t capacity) {
    if (rows == rows_ && capacity == ld_) return;
    rows_ = rows;
    ld_ = capacity;
    data_.assign(static_cast<size_t>(rows) * static_cast<size_t>(capacity),
                 0.0);
  }

  int64_t rows() const { return rows_; }
  int64_t capacity() const { return ld_; }
  /// Leading dimension: the row stride in doubles (== capacity()).
  int64_t ld() const { return ld_; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Base pointer of column `c` (stride ld() between rows).
  double* col(int64_t c) { return data_.data() + c; }
  const double* col(int64_t c) const { return data_.data() + c; }

  double& at(int64_t r, int64_t c) {
    return data_[static_cast<size_t>(r) * static_cast<size_t>(ld_) +
                 static_cast<size_t>(c)];
  }
  double at(int64_t r, int64_t c) const {
    return data_[static_cast<size_t>(r) * static_cast<size_t>(ld_) +
                 static_cast<size_t>(c)];
  }

  /// Copies column `src` over column `dst` (no-op when src == dst).
  void CopyColumn(int64_t src, int64_t dst) {
    if (src == dst) return;
    double* d = data_.data();
    for (int64_t r = 0; r < rows_; ++r) d[r * ld_ + dst] = d[r * ld_ + src];
  }

  /// Copies a contiguous Vector into column `dst`.
  void CopyColumnIn(const Vector& src, int64_t dst) {
    double* d = data_.data();
    for (int64_t r = 0; r < rows_; ++r) {
      d[r * ld_ + dst] = src[static_cast<size_t>(r)];
    }
  }

  /// Copies column `src` out into a contiguous Vector (resized to rows()).
  void CopyColumnOut(int64_t src, Vector& dst) const {
    dst.resize(static_cast<size_t>(rows_));
    const double* d = data_.data();
    for (int64_t r = 0; r < rows_; ++r) {
      dst[static_cast<size_t>(r)] = d[r * ld_ + src];
    }
  }

 private:
  int64_t rows_ = 0;
  int64_t ld_ = 0;
  std::vector<double> data_;
};

/// <column ca of a, column cb of b>; same accumulation order as Dot().
double DotColumns(const PackedBasis& a, int64_t ca, const PackedBasis& b,
                  int64_t cb);

/// Column dst += alpha * column src (within one basis); same per-element
/// arithmetic as Axpy().
void AxpyColumn(double alpha, PackedBasis& v, int64_t src, int64_t dst);

/// Scales column `c` to unit norm and returns the original norm, with
/// Normalize()'s exact semantics (untouched + 0 below `tiny`).
double NormalizeColumn(PackedBasis& v, int64_t c, double tiny = 1e-300);

/// Two-pass MGS of the contiguous vector `x` against packed columns
/// [0, cols) of `v` — the strided twin of OrthogonalizeAgainst().
void OrthogonalizeVectorAgainstColumns(const PackedBasis& v, int64_t cols,
                                       std::span<double> x);

/// Removes from packed columns [block0, block0 + block_cols) of `v` their
/// components along each (assumed unit-norm) contiguous vector in `basis`.
/// Bit-identical twin of OrthogonalizeBlockAgainst() on unpacked columns;
/// `panels` counts panel-kernel applications with the same convention and
/// `flops` accumulates the deterministic flop estimate.
void OrthogonalizeColumnsAgainstBlock(std::span<const Vector> basis,
                                      PackedBasis& v, int64_t block0,
                                      int64_t block_cols,
                                      ThreadPool* pool = nullptr,
                                      int64_t* panels = nullptr,
                                      int64_t* flops = nullptr);

/// Same, but the basis is packed columns [basis0, basis0 + basis_cols) of
/// `v` itself; the ranges must not overlap.
void OrthogonalizeColumnsAgainstColumns(PackedBasis& v, int64_t basis0,
                                        int64_t basis_cols, int64_t block0,
                                        int64_t block_cols,
                                        ThreadPool* pool = nullptr,
                                        int64_t* panels = nullptr,
                                        int64_t* flops = nullptr);

/// Orthonormalizes packed columns [b0, b0 + count) of `v` in place with
/// OrthonormalizeBlock()'s exact algorithm (panel consumption, two-pass
/// in-panel MGS, drop rule, survivor compaction by column copies).
/// Returns the resulting rank; survivors end up at [b0, b0 + rank).
int64_t OrthonormalizeColumns(PackedBasis& v, int64_t b0, int64_t count,
                              double drop_tol = 1e-10,
                              ThreadPool* pool = nullptr,
                              int64_t* panels = nullptr,
                              int64_t* flops = nullptr);

/// Fused symmetric multi-dot for the Rayleigh-Ritz H-fill: for every j in
/// [j0, j0 + count) computes
///   out[j - j0] = (<v_i, av_j> + <v_j, av_i>) / 2
/// in ONE pass over the rows per panel of kReorthPanelWidth columns —
/// instead of 2 * count scalar Dot passes. Per output the accumulation is
/// ascending-row, so the result is bit-identical to the scalar Dot pair.
void ProjectedRowMultiDot(const PackedBasis& v, const PackedBasis& av,
                          int64_t i, int64_t j0, int64_t count, double* out);

}  // namespace spectral

#endif  // SPECTRAL_LPM_LINALG_PACKED_BASIS_H_
