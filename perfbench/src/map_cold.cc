// map-cold: the offline user's call. One client keeps one
// MappingService::Order in flight; no two requests share a fingerprint, so
// every request is solved. Graph build, the eigensolver and the mapper's
// split/sort do nearly all the work; no serving or query code runs while
// the clock does.
//
// Inputs rotate through three classes (op i has class i % 3):
//   0: a 64x64 full grid (degenerate lambda2: the canonicalization path
//      runs);
//   1: a 4096-point SampleConnectedBlob in 128x128 (irregular, connected:
//      the warm-started block-Lanczos solve);
//   2: a 2048-point 4-cluster SampleGaussianClusters in 128x128 (hundreds
//      of components: many small dense solves plus the component split).
// Classes 1 and 2 draw from a fixed corpus of kShapes shapes each, and
// every op translates its shape to its own seeded offset, so no two
// requests share a fingerprint while every seed measures the same work:
// a 30-second run holds only ~150 ops per class, too few to average out
// how much one random blob or cluster sample costs to solve. The timed
// stream starts at a seeded corpus position; set-up's warm-up orders take
// shape 0 of each class for every seed.

#include <memory>
#include <optional>

#include "core/mapping_service.h"
#include "core/multilevel.h"
#include "eigen/fiedler.h"
#include "graph/coarsening.h"
#include "graph/laplacian.h"
#include "graph/point_graph.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "perfbench/src/common.h"
#include "util/hash.h"
#include "util/random.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using spectral::Coord;
using spectral::Fingerprint128;
using spectral::GridSpec;
using spectral::LinearOrder;
using spectral::MappingService;
using spectral::OrderingRequest;
using spectral::OrderingResult;
using spectral::PointSet;

constexpr int kShapes = 8;
constexpr uint64_t kCorpusSeed = 0xc0a5e5ull;
// Counters and page metrics are taken over the first kPrefixOps ops of a
// phase, which order every corpus shape once, so they repeat exactly.
constexpr int64_t kPrefixOps = 3 * kShapes;
// Set-ups per group (see SetupTimer).
constexpr int kSetupReps = 5;
constexpr uint64_t kInputTag = 1;
constexpr uint64_t kWarmupTag = 2;
constexpr uint64_t kPagesTag = 3;
// The timed ops' reference solves run after the clock stops and after
// peak_rss_mb is read, on this many threads (each solve itself
// single-threaded). Traced runs time them, so they use one there.
constexpr int kReferenceThreads = 3;

/// Shape `s` of class `cls` (1 or 2), generated once.
const PointSet& CorpusShape(int64_t cls, int64_t s) {
  static const std::vector<PointSet> corpus = [] {
    std::vector<PointSet> shapes;
    for (int64_t k = 0; k < 2 * kShapes; ++k) {
      spectral::Rng rng(SubSeed(kCorpusSeed, 1 + k / kShapes, k % kShapes));
      shapes.push_back(k < kShapes ? spectral::SampleConnectedBlob(
                                         GridSpec({128, 128}), 4096, rng)
                                   : spectral::SampleGaussianClusters(
                                         GridSpec({128, 128}), 4, 2048, 0.08,
                                         rng));
    }
    return shapes;
  }();
  return corpus[static_cast<size_t>((cls - 1) * kShapes + s)];
}

/// Input i of a stream: its class's shape, translated to (ox, oy).
struct Input {
  std::shared_ptr<const PointSet> points;
  Coord ox = 0;
  Coord oy = 0;
};

Input MakeInput(uint64_t seed, uint64_t tag, int64_t i) {
  const int64_t cls = i % 3;
  const int64_t j = i / 3;
  spectral::Rng rng(SubSeed(seed, tag, static_cast<uint64_t>(i)));
  Input input;
  input.ox = static_cast<Coord>(rng.UniformInt(0, 1 << 20));
  input.oy = static_cast<Coord>(256 * j);
  PointSet points(2);
  auto add = [&](Coord x, Coord y) {
    const Coord p[2] = {static_cast<Coord>(input.ox + x),
                        static_cast<Coord>(input.oy + y)};
    points.Add(p);
  };
  if (cls == 0) {
    for (Coord y = 0; y < 64; ++y) {
      for (Coord x = 0; x < 64; ++x) add(x, y);
    }
  } else {
    const int64_t first =
        tag == kWarmupTag ? 0 : static_cast<int64_t>(seed % kShapes);
    const PointSet& shape = CorpusShape(cls, (j + first) % kShapes);
    for (int64_t k = 0; k < shape.size(); ++k) {
      add(shape.At(k, 0), shape.At(k, 1));
    }
  }
  input.points = std::make_shared<const PointSet>(std::move(points));
  return input;
}

OrderingRequest MakeRequest(std::shared_ptr<const PointSet> points) {
  OrderingRequest request =
      OrderingRequest::ForPoints(std::move(points), "spectral");
  request.options.spectral.parallelism = 1;
  return request;
}

std::vector<Box> BoxesFor(const Input& input, int64_t i) {
  if (i % 3 == 0) return SlidingBoxes(input.ox, input.oy, 64, 64, 8, 3);
  return SlidingBoxes(input.ox, input.oy, 128, 128, 16, 7);
}

/// Hash of the rank vector, or nullopt when `order` is not a permutation
/// of 0..n-1 (service orders are compared to references by this hash, so
/// a run keeps no whole orders beyond the prefix).
std::optional<Fingerprint128> PermutationHash(const LinearOrder& order) {
  if (!IsPermutation(order)) return std::nullopt;
  spectral::Hasher hasher;
  for (int64_t i = 0; i < order.size(); ++i) hasher.MixInt(order.RankOf(i));
  return hasher.Finish();
}

bool Degraded(const OrderingResult& result) {
  return !result.converged ||
         result.detail.find("degraded=") != std::string::npos;
}

/// Replays the op's layer calls on its input, as children of the op span:
/// point graph, components, and per component of >= 2 vertices the
/// Fiedler solve the mapper would run (with its hierarchy build replayed
/// on its own and parented under the solve that repeats it).
void ReplayLayers(const OrderingRequest& request, int64_t root, int64_t op,
                  Tracer* tracer) {
  const spectral::SpectralLpmOptions& options = request.options.spectral;
  tracer->Time("core.fingerprint", -1, op,
               [&] { return request.Fingerprint(); });
  auto graph = tracer->Time("graph.point_graph", root, op, [&] {
    return spectral::BuildPointGraph(*request.points, options.graph);
  });
  if (!graph.ok()) return;
  int64_t num_components = 0;
  const std::vector<int64_t> comp =
      tracer->Time("graph.components", root, op, [&] {
        return spectral::ConnectedComponents(*graph, &num_components);
      });
  std::vector<std::vector<int64_t>> members(
      static_cast<size_t>(num_components));
  for (int64_t v = 0; v < graph->num_vertices(); ++v) {
    members[static_cast<size_t>(comp[static_cast<size_t>(v)])].push_back(v);
  }
  for (const std::vector<int64_t>& verts : members) {
    const int64_t m = static_cast<int64_t>(verts.size());
    if (m < 2) continue;
    const spectral::InducedSubgraph sub =
        spectral::BuildInducedSubgraph(*graph, verts);
    PointSet sub_points(request.points->dims());
    for (int64_t v : verts) sub_points.Add((*request.points)[v]);
    const auto axes = sub_points.CenteredAxisFunctions();
    const bool block_capable =
        options.fiedler.method == spectral::FiedlerMethod::kBlockLanczos ||
        (options.fiedler.method == spectral::FiedlerMethod::kAuto &&
         m > options.fiedler.dense_threshold);
    const bool warm =
        (options.multilevel_threshold > 0 &&
         m >= options.multilevel_threshold) ||
        (block_capable && options.warm_start_threshold > 0 &&
         m >= options.warm_start_threshold);
    int64_t hierarchy = -1;
    if (warm) {
      hierarchy = tracer->Open("graph.hierarchy", root, op);
      spectral::BuildCoarseningHierarchy(sub.graph,
                                         options.multilevel.coarsen);
      tracer->Close(hierarchy);
    }
    const int64_t fiedler = tracer->Open("eigen.fiedler", root, op);
    if (warm) {
      spectral::MultilevelOptions multilevel = options.multilevel;
      multilevel.fiedler = options.fiedler;
      (void)spectral::ComputeFiedlerMultilevel(sub.graph, multilevel, axes);
    } else {
      (void)spectral::ComputeFiedler(spectral::BuildLaplacian(sub.graph),
                                     options.fiedler, axes);
    }
    tracer->Close(fiedler);
    if (hierarchy >= 0) tracer->SetParent(hierarchy, fiedler);
  }
}

struct OpRecord {
  bool failed = false;
  std::optional<Fingerprint128> hash;
  spectral::KernelProfile profile;
};

struct Phase {
  LatencyHistogram latency;
  double busy_s = 0.0;
  std::vector<OpRecord> ops;
  /// The first kPrefixOps results, whole (empty where the op failed).
  std::vector<OrderingResult> prefix;
  spectral::MappingServiceStats prefix_stats;
  spectral::MappingServiceStats end_stats;
  double peak_rss_mb = 0.0;
};

/// One closed-loop phase on a freshly set-up service: op i orders input
/// i, until `seconds` have passed and at least kPrefixOps ops are done. The
/// clock covers only the Order calls; making the next input is the
/// client's think time and is left out of busy_s.
Phase RunPhase(uint64_t seed, double seconds, MappingService* service,
               Tracer* tracer, Report* report) {
  service->ResetStats();
  Phase phase;
  for (int64_t i = 0;; ++i) {
    if (i >= kPrefixOps && phase.busy_s >= seconds) break;
    const OrderingRequest request =
        MakeRequest(MakeInput(seed, kInputTag, i).points);
    const int64_t root = tracer ? tracer->Open("op", -1, i) : -1;
    const auto t0 = Clock::now();
    auto result = service->Order(request);
    const auto t1 = Clock::now();
    if (tracer) tracer->Close(root);
    phase.latency.Add(MsBetween(t0, t1));
    phase.busy_s += MsBetween(t0, t1) * 1e-3;
    report->CountAttempt();

    OpRecord record;
    OrderingResult kept;  // stays empty when the op failed
    if (!result.ok()) {
      record.failed = true;
      report->FailOp("map-cold op " + std::to_string(i) + ": " +
                     result.status().ToString());
    } else {
      if (Degraded(*result)) {
        record.failed = true;
        report->FailOp("map-cold op " + std::to_string(i) + " degraded");
      }
      record.hash = PermutationHash(result->order);
      record.profile = result->profile;
      kept = std::move(*result);
    }
    if (i < kPrefixOps) phase.prefix.push_back(std::move(kept));
    phase.ops.push_back(record);
    if (i + 1 == kPrefixOps) phase.prefix_stats = service->stats();
    if (tracer) ReplayLayers(request, root, i, tracer);
  }
  phase.end_stats = service->stats();
  phase.peak_rss_mb = PeakRssMb();
  return phase;
}

struct Reference {
  std::optional<Fingerprint128> hash;
  LinearOrder order;  // kept for the prefix only
  double solve_ms = 0.0;
};

/// Direct engine solves of inputs [0, n) of a stream: the answers every
/// service order must equal.
std::vector<Reference> ComputeReferences(uint64_t seed, uint64_t tag,
                                         int64_t n, int threads) {
  std::vector<Reference> refs(static_cast<size_t>(n));
  ParallelFor(n, threads, [&](int64_t i) {
    const OrderingRequest request = MakeRequest(MakeInput(seed, tag, i).points);
    auto engine = spectral::MakeOrderingEngine(request.engine);
    if (!engine.ok()) return;
    const auto t0 = Clock::now();
    auto result = (*engine)->Order(request);
    Reference& ref = refs[static_cast<size_t>(i)];
    ref.solve_ms = MsBetween(t0, Clock::now());
    if (!result.ok()) return;
    ref.hash = PermutationHash(result->order);
    if (i < kPrefixOps) ref.order = result->order;
  });
  return refs;
}

void CheckPhase(const Phase& phase, const std::vector<Reference>& refs,
                Report* report) {
  for (size_t i = 0; i < phase.ops.size(); ++i) {
    if (!refs[i].hash) {
      report->FailCheck("map-cold reference solve " + std::to_string(i));
    } else if (phase.ops[i].failed) {
      continue;  // counted when it ran
    } else if (phase.ops[i].hash != refs[i].hash) {
      report->FailOp("map-cold op " + std::to_string(i) +
                     " order differs from the direct engine's");
    } else if (i < phase.prefix.size() &&
               !SameOrder(phase.prefix[i].order, refs[i].order)) {
      report->FailOp("map-cold op " + std::to_string(i) +
                     " is not the reference permutation");
    }
  }
  if (phase.end_stats.degraded_orders != 0) {
    report->FailCheck("map-cold served degraded orders");
  }
}

double MeanOverPrefix(const Phase& phase,
                      int64_t (*field)(const OrderingResult&)) {
  double sum = 0.0;
  for (const OrderingResult& r : phase.prefix) {
    sum += static_cast<double>(field(r));
  }
  return phase.prefix.empty() ? 0.0 : sum / phase.prefix.size();
}

void AddEndToEnd(const Args& args, const Phase& phase, double setup_s,
                 Report* report) {
  report->Add("setup_s", setup_s, "s");
  report->Add("latency_p50_ms", phase.latency.Quantile(0.50), "ms");
  report->Add("latency_p90_ms", phase.latency.Quantile(0.90), "ms");
  PrintUngatedP99(phase.latency);
  report->Add("ops_per_s", phase.latency.count() / phase.busy_s, "1/s");
  report->Add("peak_rss_mb", phase.peak_rss_mb, "MB");

  PageTally pages;
  for (size_t i = 0; i < phase.prefix.size(); ++i) {
    if (phase.prefix[i].order.size() == 0) continue;  // failed, reported
    const Input input = MakeInput(args.seed, kInputTag, static_cast<int64_t>(i));
    const auto boxes = BoxesFor(input, static_cast<int64_t>(i));
    pages.Add(EvaluatePages(*input.points, phase.prefix[i].order, boxes,
                            SubSeed(args.seed, kPagesTag, i), report,
                            "map-cold order " + std::to_string(i)));
  }
  report->Add("range_pages_mean", pages.pages_mean(), "pages");
  report->Add("range_pages_max", static_cast<double>(pages.pages_max),
              "pages");
  report->Add("page_io_per_query", pages.io_per_query(), "pages");
}

void AddPerLayer(const Phase& untraced, const Phase& traced,
                 const Tracer& tracer, const std::vector<Reference>& refs,
                 Report* report) {
  report->Add("graph.point_graph_ms", tracer.MedianMs("graph.point_graph"),
              "ms");
  report->Add("graph.components_ms", tracer.MedianMs("graph.components"),
              "ms");
  report->Add("graph.hierarchy_ms", tracer.MedianMs("graph.hierarchy"), "ms");
  report->Add("graph.components",
              MeanOverPrefix(traced,
                             [](const OrderingResult& r) {
                               return r.num_components;
                             }),
              "count");

  report->Add("eigen.fiedler_ms", tracer.MedianMs("eigen.fiedler"), "ms");
  std::vector<double> spmm, reorth, hfill, rr, cheb;
  spectral::KernelProfile total;
  for (const OpRecord& op : traced.ops) {
    spmm.push_back(op.profile.spmm_ms);
    reorth.push_back(op.profile.reorth_ms);
    hfill.push_back(op.profile.hfill_ms);
    rr.push_back(op.profile.rr_ms);
    cheb.push_back(op.profile.cheb_ms);
    total.Add(op.profile);
  }
  report->Add("eigen.spmm_ms", Median(spmm), "ms");
  report->Add("eigen.reorth_ms", Median(reorth), "ms");
  report->Add("eigen.hfill_ms", Median(hfill), "ms");
  report->Add("eigen.rr_ms", Median(rr), "ms");
  report->Add("eigen.cheb_ms", Median(cheb), "ms");
  auto gflops = [](int64_t flops, double ms) {
    return ms > 0.0 ? static_cast<double>(flops) / ms * 1e-6 : 0.0;
  };
  report->Add("eigen.spmm_gflops", gflops(total.spmm_flops, total.spmm_ms),
              "GFLOP/s");
  report->Add("eigen.reorth_gflops",
              gflops(total.reorth_flops, total.reorth_ms), "GFLOP/s");
  report->Add("eigen.cheb_gflops", gflops(total.cheb_flops, total.cheb_ms),
              "GFLOP/s");
  report->Add("eigen.matvecs",
              MeanOverPrefix(traced,
                             [](const OrderingResult& r) { return r.matvecs; }),
              "count");
  report->Add("eigen.restarts",
              MeanOverPrefix(traced,
                             [](const OrderingResult& r) { return r.restarts; }),
              "count");
  report->Add("eigen.spmm_calls",
              MeanOverPrefix(traced,
                             [](const OrderingResult& r) {
                               return r.spmm_calls;
                             }),
              "count");
  report->Add("eigen.reorth_panels",
              MeanOverPrefix(traced,
                             [](const OrderingResult& r) {
                               return r.reorth_panels;
                             }),
              "count");

  report->Add("core.order_ms", tracer.MedianMs("op"), "ms");
  report->Add("core.self_ms", tracer.MedianSelfMs("op"), "ms");
  report->Add("core.fingerprint_us",
              tracer.MedianMs("core.fingerprint") * 1e3, "us");
  std::vector<double> solve_ms;
  for (const Reference& ref : refs) solve_ms.push_back(ref.solve_ms);
  report->Add("core.solve_ms.spectral", Median(solve_ms), "ms");
  const spectral::MappingServiceStats& s = traced.prefix_stats;
  report->Add("core.cache_hit_rate",
              s.requests > 0 ? static_cast<double>(s.cache_hits) / s.requests
                             : 0.0,
              "fraction");
  report->Add("core.solves", static_cast<double>(s.solves), "count");
  report->Add("core.coalesced", static_cast<double>(s.coalesced_requests),
              "count");
  report->Add("core.evictions", static_cast<double>(s.cache_evictions),
              "count");
  const spectral::MappingServiceStats& e = traced.end_stats;
  report->Add("core.batch_size_mean",
              e.batches > 0 ? static_cast<double>(e.requests) / e.batches
                            : 0.0,
              "count");
  report->Add("core.batch_ms_mean",
              e.batches > 0 ? e.batch_latency_total_ms / e.batches : 0.0,
              "ms");
  report->Add("core.degraded_orders",
              static_cast<double>(untraced.end_stats.degraded_orders +
                                  e.degraded_orders),
              "count");

  const double untraced_p50 = untraced.latency.Quantile(0.5);
  report->Add("trace.overhead_frac",
              untraced_p50 > 0.0
                  ? traced.latency.Quantile(0.5) / untraced_p50 - 1.0
                  : 0.0,
              "fraction");
  report->Add("trace.unattributed_frac", tracer.UnattributedFrac({"op"}),
              "fraction");
}

}  // namespace

/// Set-up: a one-thread service plus one warm-up order of each class (the
/// same three shapes for every seed), each checked against its reference.
std::unique_ptr<MappingService> SetUpService(
    uint64_t seed, const std::vector<Reference>& warm_refs, Report* report) {
  spectral::MappingServiceOptions options;
  options.parallelism = 1;
  auto service = std::make_unique<MappingService>(options);
  for (int64_t i = 0; i < 3; ++i) {
    auto result =
        service->Order(MakeRequest(MakeInput(seed, kWarmupTag, i).points));
    const auto& ref = warm_refs[static_cast<size_t>(i)].hash;
    if (!result.ok() || Degraded(*result) || !ref ||
        PermutationHash(result->order) != ref) {
      report->FailCheck("map-cold warm-up order " + std::to_string(i));
    }
  }
  return service;
}

void RunMapCold(const Args& args, Report* report) {
  // One thread: nothing here may raise the VmHWM that peak_rss_mb reads.
  const std::vector<Reference> warm_refs =
      ComputeReferences(args.seed, kWarmupTag, 3, /*threads=*/1);
  // The last set-up's service runs the (first) phase.
  std::unique_ptr<MappingService> service;
  SetupTimer setup(
      [&] { service = SetUpService(args.seed, warm_refs, report); },
      [&] { service.reset(); });
  setup.Run(kSetupReps);

  if (!args.trace) {
    const Phase phase =
        RunPhase(args.seed, args.seconds, service.get(), nullptr, report);
    setup.Run(kSetupReps);
    CheckPhase(phase,
               ComputeReferences(args.seed, kInputTag,
                                 static_cast<int64_t>(phase.ops.size()),
                                 kReferenceThreads),
               report);
    AddEndToEnd(args, phase, setup.MedianSeconds(), report);
    return;
  }

  // The traced phase repeats the untraced phase's inputs, so it needs a
  // service of its own (untimed set-up) or every op would hit the cache.
  const Phase untraced = RunPhase(args.seed, args.seconds / 2, service.get(),
                                  nullptr, report);
  service = SetUpService(args.seed, warm_refs, report);
  Tracer tracer;
  const Phase traced = RunPhase(args.seed, args.seconds / 2, service.get(),
                                &tracer, report);
  const std::vector<Reference> refs = ComputeReferences(
      args.seed, kInputTag,
      static_cast<int64_t>(std::max(untraced.ops.size(), traced.ops.size())),
      /*threads=*/1);
  CheckPhase(untraced, refs, report);
  CheckPhase(traced, refs, report);
  AddPerLayer(untraced, traced, tracer, refs, report);
  WriteTrace(tracer, args);
}

}  // namespace perfbench
