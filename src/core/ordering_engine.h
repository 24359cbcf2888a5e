// OrderingEngine: one request-based interface over every linear-order
// producer in the library — the spectral mapper (the paper's contribution),
// recursive spectral bisection, and all fractal/sweep curve baselines.
//
// The single entry point is Order(const OrderingRequest&): the request
// names the engine, carries a tagged input (point set | caller-built graph
// | points + affinity edges), and embeds the full option set, so engines
// are stateless adapters and there is exactly one way to ask for an order.
// Requests also expose a stable Fingerprint() (content hash of input +
// options), which core/mapping_service.h uses to batch, deduplicate, and
// cache orders across heterogeneous traffic.
//
// Consumers construct engines by name through MakeOrderingEngine — or, for
// batching and caching, go through the MappingService facade — so adding a
// backend (a sharded solver, a cached order store, a learned mapping) is
// one registry entry that is instantly reachable from the CLI, the benches,
// and the examples. The registry mirrors sfc/curve_registry.h one level up.

#ifndef SPECTRAL_LPM_CORE_ORDERING_ENGINE_H_
#define SPECTRAL_LPM_CORE_ORDERING_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/linear_order.h"
#include "core/ordering_request.h"
#include "eigen/kernel_profile.h"
#include "linalg/vector_ops.h"
#include "space/grid.h"
#include "util/status.h"

namespace spectral {

/// How MappingService served a result: the typed form of the
/// " | cache=off|hit|miss" tag it appends to OrderingResult::detail.
enum class CacheOutcome {
  /// No order cache was consulted: a direct engine call, or a service with
  /// caching disabled.
  kOff,
  /// Served without a solve: from the order cache, or from a duplicate
  /// solved earlier in the same batch.
  kHit,
  /// Solved by an engine.
  kMiss,
};

/// A linear order plus the diagnostics of whichever method produced it.
/// Fields a method does not populate keep their zero defaults.
struct OrderingResult {
  LinearOrder order;

  /// Which concrete solver/curve produced the order ("lanczos",
  /// "dense-jacobi", "median-cut", a curve name, ...).
  std::string method;

  // Spectral family (spectral and its alias spectral-multilevel,
  // sharded-spectral, bisection).
  double lambda2 = 0.0;
  int64_t num_components = 0;
  int64_t matvecs = 0;
  /// Eigensolver restart cycles summed over components (Krylov paths).
  int64_t restarts = 0;
  /// Fused block-operator (SpMM) applications (block Lanczos paths).
  int64_t spmm_calls = 0;
  /// Reorthogonalization panel-kernel applications (block Lanczos paths).
  int64_t reorth_panels = 0;
  /// Per-kernel wall time + deterministic flop estimates (block Lanczos
  /// paths; see eigen/kernel_profile.h). Only the flop counters appear in
  /// `detail` — the `*_ms` fields are machine-dependent and detail strings
  /// are compared byte-for-byte by caching/sharding layers.
  KernelProfile profile;
  /// The 1-d embedding the order was sorted from (the concatenated
  /// per-component Fiedler vectors); empty for non-spectral engines.
  Vector embedding;

  // Recursive bisection.
  int64_t num_solves = 0;
  int depth = 0;

  // Curve family: the axis-0 side and total cell count of the enclosing
  // grid the curve was instantiated on (power-of-2 / power-of-3 rounding
  // means the grid can be larger than the data's bounding box; sweep,
  // snake, spiral, and the rectangular peano composition keep it tight).
  Coord grid_side = 0;
  int64_t grid_cells = 0;

  /// One-line, method-specific summary ("engine=lanczos", "grid_side=64",
  /// ...) for CLIs and bench logs. MappingService appends a " | cache=..."
  /// suffix recording how it served the request.
  std::string detail;

  /// How MappingService served this result (set together with the detail
  /// suffix). Callers branch on this, never on the detail text. Cache
  /// entries and snapshots store kOff; the outcome belongs to each serve.
  CacheOutcome cache = CacheOutcome::kOff;

  /// False when a spectral solve exhausted its restart budget and the order
  /// is a best-effort estimate (mirrored as a "converged=0/1" token in
  /// `detail` for the spectral family). Curve engines and bisection always
  /// converge. MappingService never caches or snapshots a result with
  /// converged == false and runs its retry/degrade ladder instead.
  bool converged = true;
};

/// Abstract producer of linear orders. Stateless: everything a solve needs
/// travels in the request.
class OrderingEngine {
 public:
  virtual ~OrderingEngine() = default;

  /// The registry name this engine was constructed under.
  virtual std::string_view name() const = 0;

  /// True when kGraph requests are implemented: the spectral family accepts
  /// a caller-built graph (section-4 custom weights); curve baselines are
  /// geometry-only and return Unimplemented.
  virtual bool supports_graph_input() const { return false; }

  /// Runs the request. Returns InvalidArgument when the request fails
  /// Validate() or names a different engine, and Unimplemented when this
  /// engine cannot consume the request's input kind.
  virtual StatusOr<OrderingResult> Order(
      const OrderingRequest& request) const = 0;
};

/// The preamble of every engine's Order(): request.Validate(), then the
/// check that the request is addressed to `engine` (keeps MappingService
/// routing and cache keys honest).
Status CheckOrderingRequest(const OrderingRequest& request,
                            std::string_view engine);

/// The spectral configuration a request resolves to: options.spectral with
/// the request's own affinity edges appended to any configured there.
SpectralLpmOptions EffectiveSpectralOptions(const OrderingRequest& request);

/// Every registry name, in presentation order: the spectral family first,
/// then the curve families (the concrete list lives in the registry; CLIs
/// and error messages must derive their listings from this function).
std::vector<std::string> AllOrderingEngineNames();

/// Constructs the engine registered under `name`; NotFound for unknown
/// names (the message lists the registry).
StatusOr<std::unique_ptr<OrderingEngine>> MakeOrderingEngine(
    std::string_view name);

}  // namespace spectral

#endif  // SPECTRAL_LPM_CORE_ORDERING_ENGINE_H_
