#include "core/ordering_engine.h"

#include <algorithm>
#include <utility>

#include "core/curve_order.h"
#include "core/recursive_bisection.h"
#include "core/sharded_engine.h"
#include "core/spectral_lpm.h"
#include "util/string_util.h"

namespace spectral {

namespace {

constexpr std::string_view kSpectralName = "spectral";
constexpr std::string_view kSpectralMultilevelName = "spectral-multilevel";
constexpr std::string_view kBisectionName = "bisection";

OrderingResult FromSpectralResult(SpectralLpmResult result) {
  OrderingResult out;
  out.order = std::move(result.order);
  out.method = result.method_used;
  out.lambda2 = result.lambda2;
  out.num_components = result.num_components;
  out.matvecs = result.matvecs;
  out.restarts = result.restarts;
  out.spmm_calls = result.spmm_calls;
  out.reorth_panels = result.reorth_panels;
  out.profile = result.profile;
  out.embedding = std::move(result.values);
  out.converged = result.converged;
  // Only the deterministic flop estimates go into detail (it is compared
  // byte-for-byte by caching/sharding layers); wall times stay in
  // `profile` for --profile output and bench share rows.
  out.detail = "engine=" + out.method +
               " lambda2=" + FormatDouble(out.lambda2) +
               " components=" + FormatInt(out.num_components) +
               " matvecs=" + FormatInt(out.matvecs) +
               " restarts=" + FormatInt(out.restarts) +
               " spmm=" + FormatInt(out.spmm_calls) +
               " reorth_panels=" + FormatInt(out.reorth_panels) +
               " flops=" + FormatInt(out.profile.spmm_flops) + "/" +
               FormatInt(out.profile.reorth_flops) + "/" +
               FormatInt(out.profile.hfill_flops) + "/" +
               FormatInt(out.profile.rr_flops) + "/" +
               FormatInt(out.profile.cheb_flops) +
               " converged=" + (out.converged ? "1" : "0");
  return out;
}

/// "spectral": the direct Fiedler-order adapter over SpectralMapper. Also
/// registered as "spectral-multilevel", an alias kept for existing
/// clients: the mapper already warm-starts every large component through
/// the multilevel cascade, so the two names return the same bytes. Each
/// instance answers to the name it was made under, and requests keep
/// their own name in the fingerprint.
class SpectralEngine : public OrderingEngine {
 public:
  explicit SpectralEngine(std::string_view name) : name_(name) {}

  std::string_view name() const override { return name_; }
  bool supports_graph_input() const override { return true; }

  StatusOr<OrderingResult> Order(const OrderingRequest& request) const override {
    if (Status s = CheckOrderingRequest(request, name_); !s.ok()) return s;
    const SpectralMapper mapper(EffectiveSpectralOptions(request));
    auto result = request.input == OrderingInputKind::kGraph
                      ? mapper.MapGraph(*request.graph, request.points.get())
                      : mapper.Map(*request.points);
    if (!result.ok()) return result.status();
    return FromSpectralResult(std::move(*result));
  }

 private:
  std::string_view name_;
};

/// "bisection": recursive spectral median-cut adapter.
class BisectionEngine : public OrderingEngine {
 public:
  std::string_view name() const override { return kBisectionName; }
  bool supports_graph_input() const override { return true; }

  StatusOr<OrderingResult> Order(const OrderingRequest& request) const override {
    if (Status s = CheckOrderingRequest(request, kBisectionName); !s.ok()) {
      return s;
    }
    RecursiveBisectionOptions options = request.options.bisection;
    options.base = EffectiveSpectralOptions(request);
    auto result =
        request.input == OrderingInputKind::kGraph
            ? RecursiveSpectralOrderGraph(*request.graph, request.points.get(),
                                          options)
            : RecursiveSpectralOrder(*request.points, options);
    if (!result.ok()) return result.status();

    OrderingResult out;
    out.order = std::move(result->order);
    out.method = "median-cut";
    out.num_solves = result->num_solves;
    out.matvecs = result->matvecs;
    out.depth = result->depth;
    out.detail = "solves=" + FormatInt(out.num_solves) +
                 " warm_solves=" + FormatInt(result->warm_solves) +
                 " matvecs=" + FormatInt(out.matvecs) +
                 " depth=" + FormatInt(out.depth);
    return out;
  }
};

/// Curve-family adapter: orders by curve index on the smallest legal
/// enclosing grid, reporting the padding in the diagnostics.
class CurveEngine : public OrderingEngine {
 public:
  explicit CurveEngine(CurveKind kind) : kind_(kind) {}

  std::string_view name() const override { return CurveKindName(kind_); }

  StatusOr<OrderingResult> Order(const OrderingRequest& request) const override {
    if (Status s = CheckOrderingRequest(request, name()); !s.ok()) return s;
    if (request.input != OrderingInputKind::kPoints) {
      return UnimplementedError(
          "engine '" + std::string(name()) +
          "' is geometry-only: it accepts kPoints requests, not graphs or "
          "affinity edges");
    }
    GridSpec grid = GridSpec::Uniform(1, 1);
    auto order = OrderByCurve(*request.points, kind_, &grid);
    if (!order.ok()) return order.status();

    OrderingResult out;
    out.order = std::move(*order);
    out.method = std::string(CurveKindName(kind_));
    out.grid_side = grid.side(0);
    out.grid_cells = grid.NumCells();
    out.detail = "grid_side=" + FormatInt(out.grid_side) +
                 " grid_cells=" + FormatInt(out.grid_cells);
    return out;
  }

 private:
  CurveKind kind_;
};

}  // namespace

Status CheckOrderingRequest(const OrderingRequest& request,
                            std::string_view engine) {
  if (Status s = request.Validate(); !s.ok()) return s;
  if (request.engine != engine) {
    return InvalidArgumentError("request addressed to engine '" +
                                request.engine + "' given to engine '" +
                                std::string(engine) + "'");
  }
  return OkStatus();
}

SpectralLpmOptions EffectiveSpectralOptions(const OrderingRequest& request) {
  SpectralLpmOptions spectral = request.options.spectral;
  spectral.affinity_edges.insert(spectral.affinity_edges.end(),
                                 request.affinity_edges.begin(),
                                 request.affinity_edges.end());
  return spectral;
}

std::vector<std::string> AllOrderingEngineNames() {
  std::vector<std::string> names = {std::string(kSpectralName),
                                    std::string(kSpectralMultilevelName),
                                    std::string(kShardedSpectralEngineName),
                                    std::string(kBisectionName)};
  for (CurveKind kind : AllCurveKinds()) {
    names.emplace_back(CurveKindName(kind));
  }
  return names;
}

StatusOr<std::unique_ptr<OrderingEngine>> MakeOrderingEngine(
    std::string_view name) {
  if (name == kSpectralName || name == kSpectralMultilevelName) {
    // The engine keeps a view of the registry constant, never of `name`.
    return std::unique_ptr<OrderingEngine>(new SpectralEngine(
        name == kSpectralName ? kSpectralName : kSpectralMultilevelName));
  }
  if (name == kShardedSpectralEngineName) {
    return MakeShardedSpectralEngine();
  }
  if (name == kBisectionName) {
    return std::unique_ptr<OrderingEngine>(new BisectionEngine());
  }
  auto kind = CurveKindFromName(name);
  if (kind.ok()) {
    return std::unique_ptr<OrderingEngine>(new CurveEngine(*kind));
  }
  return NotFoundError("unknown ordering engine '" + std::string(name) +
                       "'; known engines: " +
                       StrJoin(AllOrderingEngineNames(), ", "));
}

}  // namespace spectral
