#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"
#include "util/random.h"

namespace spectral {
namespace {

TEST(VectorOps, DotAndNorm) {
  Vector x = {1.0, 2.0, 3.0};
  Vector y = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(x, y), 12.0);
  EXPECT_DOUBLE_EQ(Norm2(x), std::sqrt(14.0));
  EXPECT_DOUBLE_EQ(NormInf(y), 6.0);
}

TEST(VectorOps, AxpyAndScale) {
  Vector x = {1.0, 1.0};
  Vector y = {2.0, 3.0};
  Axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
  Scale(0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 2.5);
}

TEST(VectorOps, NormalizeUnitResult) {
  Vector x = {3.0, 4.0};
  const double norm = Normalize(x);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(Norm2(x), 1.0, 1e-15);
}

TEST(VectorOps, NormalizeTinyVectorUntouched) {
  Vector x = {0.0, 0.0};
  EXPECT_EQ(Normalize(x), 0.0);
  EXPECT_EQ(x[0], 0.0);
}

TEST(VectorOps, OrthogonalizeAgainstBasis) {
  std::vector<Vector> basis = {{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}};
  Vector x = {3.0, 4.0, 5.0};
  OrthogonalizeAgainst(basis, x);
  EXPECT_NEAR(x[0], 0.0, 1e-14);
  EXPECT_NEAR(x[1], 0.0, 1e-14);
  EXPECT_NEAR(x[2], 5.0, 1e-14);
}

TEST(DenseMatrix, IdentityMatVec) {
  const DenseMatrix eye = DenseMatrix::Identity(3);
  Vector x = {1.0, 2.0, 3.0};
  Vector y(3);
  eye.MatVec(x, y);
  EXPECT_EQ(y, x);
}

TEST(DenseMatrix, MatVecKnown) {
  DenseMatrix a(2, 3);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(0, 2) = 3;
  a.At(1, 0) = 4;
  a.At(1, 1) = 5;
  a.At(1, 2) = 6;
  Vector x = {1.0, 0.0, -1.0};
  Vector y(2);
  a.MatVec(x, y);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(DenseMatrix, SymmetryError) {
  DenseMatrix a(2, 2);
  a.At(0, 1) = 1.0;
  a.At(1, 0) = 1.5;
  EXPECT_DOUBLE_EQ(a.SymmetryError(), 0.5);
}

TEST(SparseMatrix, FromTripletsMergesDuplicates) {
  std::vector<Triplet> t = {{0, 1, 2.0}, {0, 1, 3.0}, {1, 0, 1.0}};
  const SparseMatrix m = SparseMatrix::FromTriplets(2, 2, t);
  EXPECT_EQ(m.nnz(), 2);
  const DenseMatrix d = DenseMatrix::FromSparse(m);
  EXPECT_DOUBLE_EQ(d.At(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d.At(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(d.At(0, 0), 0.0);
}

TEST(SparseMatrix, MatVecMatchesDense) {
  std::vector<Triplet> t = {{0, 0, 2.0}, {0, 2, -1.0}, {1, 1, 3.0},
                            {2, 0, -1.0}, {2, 2, 2.0}};
  const SparseMatrix m = SparseMatrix::FromTriplets(3, 3, t);
  const DenseMatrix d = DenseMatrix::FromSparse(m);
  Vector x = {1.0, 2.0, 3.0};
  Vector ys(3), yd(3);
  m.MatVec(x, ys);
  d.MatVec(x, yd);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-14);
}

TEST(SparseMatrix, GershgorinBoundsSpectralRadius) {
  // Laplacian-like matrix: diag 2, off -1.
  std::vector<Triplet> t = {{0, 0, 2.0}, {0, 1, -1.0}, {1, 0, -1.0},
                            {1, 1, 2.0}};
  const SparseMatrix m = SparseMatrix::FromTriplets(2, 2, t);
  // Eigenvalues are 1 and 3; Gershgorin gives 3.
  EXPECT_DOUBLE_EQ(m.GershgorinBound(), 3.0);
}

TEST(SparseMatrix, SymmetryErrorDetectsAsymmetry) {
  std::vector<Triplet> sym = {{0, 1, 1.0}, {1, 0, 1.0}};
  EXPECT_DOUBLE_EQ(SparseMatrix::FromTriplets(2, 2, sym).SymmetryError(), 0.0);
  std::vector<Triplet> asym = {{0, 1, 1.0}};
  EXPECT_DOUBLE_EQ(SparseMatrix::FromTriplets(2, 2, asym).SymmetryError(), 1.0);
}

TEST(SparseMatrix, Diagonal) {
  std::vector<Triplet> t = {{0, 0, 4.0}, {1, 1, 5.0}, {0, 1, 9.0}};
  const Vector diag = SparseMatrix::FromTriplets(2, 2, t).Diagonal();
  EXPECT_DOUBLE_EQ(diag[0], 4.0);
  EXPECT_DOUBLE_EQ(diag[1], 5.0);
}

TEST(SparseMatrix, EmptyMatrix) {
  const SparseMatrix m = SparseMatrix::FromTriplets(0, 0, {});
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.nnz(), 0);
}

// n x n with a random number (0-6) of random-valued entries per row.
SparseMatrix RandomSparse(int64_t n, Rng& rng) {
  std::vector<Triplet> t;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t count = rng.UniformInt(0, 6);
    for (int64_t k = 0; k < count; ++k) {
      t.push_back({i, rng.UniformInt(0, n - 1), rng.UniformDouble(-2.0, 2.0)});
    }
  }
  return SparseMatrix::FromTriplets(n, n, std::move(t));
}

// The SpMM kernel on panels with ld > width, over the whole row range and
// over a sub-range: every computed entry equals per-column MatVec bit for
// bit, and rows outside [first, last) and lanes past `width` are untouched.
// Widths 1-8 take the fixed-width kernels, 11 the wide fallback.
TEST(SparseMatrix, MatVecRowsPanelMatchesPerColumnMatVec) {
  constexpr int64_t n = 97;
  constexpr double kSentinel = -7.25;
  Rng rng(0x5a11);
  const SparseMatrix m = RandomSparse(n, rng);
  for (int64_t width : {1, 2, 3, 4, 5, 6, 7, 8, 11}) {
    const int64_t x_ld = width + 3;
    const int64_t y_ld = width + 5;
    std::vector<double> x(static_cast<size_t>(n * x_ld));
    for (double& v : x) v = rng.UniformDouble(-1.0, 1.0);
    std::vector<Vector> expected(static_cast<size_t>(width));
    Vector column(static_cast<size_t>(n));
    for (int64_t c = 0; c < width; ++c) {
      for (int64_t j = 0; j < n; ++j) {
        column[static_cast<size_t>(j)] = x[static_cast<size_t>(j * x_ld + c)];
      }
      expected[static_cast<size_t>(c)].resize(static_cast<size_t>(n));
      m.MatVec(column, expected[static_cast<size_t>(c)]);
    }
    for (const auto& [first, last] :
         {std::pair<int64_t, int64_t>{0, n}, {13, 61}}) {
      std::vector<double> y(static_cast<size_t>(n * y_ld), kSentinel);
      m.MatVecRowsPanel(first, last, width, x.data(), x_ld, y.data(), y_ld);
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t c = 0; c < y_ld; ++c) {
          const double got = y[static_cast<size_t>(i * y_ld + c)];
          if (i < first || i >= last || c >= width) {
            ASSERT_EQ(got, kSentinel) << "width=" << width << " row " << i;
          } else {
            ASSERT_EQ(got, expected[static_cast<size_t>(c)]
                               [static_cast<size_t>(i)])
                << "width=" << width << " row " << i << " col " << c;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace spectral
