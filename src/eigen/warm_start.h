// Multilevel warm start for the block Fiedler solver: dense-solve the
// coarsest Laplacian of a Galerkin (heavy-edge-matching) hierarchy, then
// prolong the smallest non-trivial eigenvector block level by level —
// piecewise-constant interpolation followed by weighted-Jacobi smoothing,
// with no eigensolve on any level in between. Coarse Laplacian spectra
// transfer well to the fine graph (Druskin et al., distance-preserving
// model order reduction of graph-Laplacians), so only the caller's finest
// solve iterates to full accuracy; it merely polishes this block.
//
// The cascade's shape (two Jacobi sweeps at omega = 2/3, a dense coarsest
// solve up to 512 vertices, and a loose 1e-4 block solve above that when
// matching stalls early) is fixed in warm_start.cc. The warm start only
// moves the cost of the finest solve, never its converged order.
//
// This unit is deliberately graph-agnostic: it consumes per-level
// Laplacians plus fine-to-coarse index maps. core/multilevel.cc assembles
// those from graph/coarsening.h's BuildCoarseningHierarchy.

#ifndef SPECTRAL_LPM_EIGEN_WARM_START_H_
#define SPECTRAL_LPM_EIGEN_WARM_START_H_

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/block_ops.h"
#include "linalg/sparse_matrix.h"
#include "util/status.h"

namespace spectral {

/// One level of the hierarchy, finest first.
struct WarmStartLevel {
  /// The Laplacian of this level's graph.
  SparseMatrix laplacian;
  /// Maps this level's vertices into the next (coarser) level; empty at
  /// the coarsest level. Size must equal laplacian.rows() when non-empty.
  std::vector<int64_t> fine_to_coarse;
};

/// Options for MultilevelFiedlerWarmStart.
struct WarmStartOptions {
  /// Eigenvector block width to carry up the hierarchy (the caller's
  /// num_pairs: enough columns to span a degenerate lambda2 eigenspace).
  int num_vectors = 3;
  /// Chebyshev budget of the coarsest block solve (only run when matching
  /// stalls before the coarsest level is small enough for the dense solve).
  int cheb_degree_max = 120;
  uint64_t seed = 0x3a9b7c0ffeeull;
};

/// Output of MultilevelFiedlerWarmStart.
struct WarmStartResult {
  /// num_vectors orthonormal columns at the finest level, orthogonal to
  /// the all-ones kernel: an approximation of the smallest non-trivial
  /// eigenvector block, ready for BlockLanczosOptions::start.
  VectorBlock block;
  /// Laplacian matvecs spent across all levels (smoothing, plus the
  /// coarsest block solve when it runs).
  int64_t matvecs = 0;
  /// Number of hierarchy levels walked (1 = no coarsening happened).
  int levels = 0;
};

/// Runs the coarsen-solve-prolong-smooth cascade over `levels` (finest
/// first; levels[k].fine_to_coarse maps into levels[k+1]). Returns
/// FailedPrecondition when the coarsest solve reveals a disconnected graph
/// (a second near-zero eigenvalue): the hierarchy preserves
/// connectivity, so the input graph is disconnected too.
StatusOr<WarmStartResult> MultilevelFiedlerWarmStart(
    std::span<const WarmStartLevel> levels,
    const WarmStartOptions& options = {});

}  // namespace spectral

#endif  // SPECTRAL_LPM_EIGEN_WARM_START_H_
