// query-range: the paper's payoff. Set-up builds spectral layouts of
// grid64x64 and clusters2k with BuildQueryPath (bench_query_io's shapes
// and cluster seed), each with its own 64-page LruBufferPool warmed by one
// pass. One client then issues a fixed interleaved stream: unaligned
// sliding boxes under RangeViaBTree and RangeViaRTree plus KnnViaWindow
// probes. storage, index and query do all the timed work; the eigensolver
// runs only in set-up. grid64x64 (128 pages) is larger than its pool,
// clusters2k (64 pages) fits in its pool.

#include <memory>
#include <optional>

#include "core/mapping_service.h"
#include "perfbench/src/common.h"
#include "query/executor.h"
#include "storage/buffer_pool.h"
#include "util/random.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using spectral::LinearOrder;
using spectral::OrderingRequest;
using spectral::PointSet;
using spectral::QueryResultStats;

// Set-ups per group (see SetupTimer).
constexpr int kSetupReps = 5;
constexpr uint64_t kStreamTag = 21;
// bench_query_io's clusters2k sample seed.
constexpr uint64_t kClustersSeed = 0xc1a5ull;

struct Dataset {
  std::string name;
  std::shared_ptr<const PointSet> points;
  std::vector<Box> boxes;
  LinearOrder reference;
  double reference_ms = 0.0;
  std::vector<BoxAnswer> answers;
  std::vector<QueryOp> stream;
  // Set-up state.
  std::optional<spectral::QueryPath> path;
  std::unique_ptr<spectral::LruBufferPool> pool;
};

OrderingRequest MakeRequest(const Dataset& d) {
  OrderingRequest request = OrderingRequest::ForPoints(d.points, "spectral");
  request.options.spectral.parallelism = 1;
  // A 2-d grid has a 2-fold degenerate lambda2: one extra pair lets the
  // canonicalizer see the whole eigenspace (bench_query_io's setting).
  request.options.spectral.fiedler.num_pairs = 3;
  return request;
}

/// The two datasets with their reference orders (direct engine solves) and
/// brute-force box answers.
std::vector<Dataset> MakeDatasets(uint64_t seed, Report* report) {
  std::vector<Dataset> data(2);
  data[0].name = "grid64x64";
  data[0].points = std::make_shared<const PointSet>(
      PointSet::FullGrid(spectral::GridSpec({64, 64})));
  data[0].boxes = SlidingBoxes(0, 0, 64, 64, 8, 3);
  spectral::Rng rng(kClustersSeed);
  data[1].name = "clusters2k";
  data[1].points = std::make_shared<const PointSet>(
      spectral::SampleGaussianClusters(spectral::GridSpec({128, 128}), 4,
                                       2048, 0.08, rng));
  data[1].boxes = SlidingBoxes(0, 0, 128, 128, 16, 7);
  for (size_t k = 0; k < data.size(); ++k) {
    Dataset& d = data[k];
    auto engine = spectral::MakeOrderingEngine("spectral");
    const auto t0 = Clock::now();
    auto result = (*engine)->Order(MakeRequest(d));
    d.reference_ms = MsBetween(t0, Clock::now());
    if (!result.ok() || !IsPermutation(result->order)) {
      report->FailCheck("reference order of " + d.name);
      continue;
    }
    d.reference = result->order;
    for (const Box& box : d.boxes) {
      d.answers.push_back(BruteForceBox(*d.points, d.reference, box,
                                        kPageSize));
    }
    d.stream = MakeQueryStream(d.points->size(),
                               static_cast<int64_t>(d.boxes.size()),
                               SubSeed(seed, kStreamTag, k));
  }
  return data;
}

/// One op of the combined stream: the two datasets' streams alternate.
struct StreamOp {
  size_t dataset;
  QueryOp op;
};

std::vector<StreamOp> Interleave(const std::vector<Dataset>& data) {
  std::vector<StreamOp> out;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (size_t k = 0; k < data.size(); ++k) {
      if (i < data[k].stream.size()) {
        out.push_back({k, data[k].stream[i]});
        any = true;
      }
    }
    if (!any) return out;
  }
}

const char* OpName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kBTree:
      return "query.btree_range";
    case QueryKind::kRTree:
      return "query.rtree_range";
    case QueryKind::kKnn:
      return "query.knn";
  }
  return "query";
}

QueryResultStats RunOp(const Dataset& d, const spectral::QueryExecutor& ex,
                       const QueryOp& op) {
  const size_t b = static_cast<size_t>(op.index);
  switch (op.kind) {
    case QueryKind::kBTree:
      return ex.RangeViaBTree(d.boxes[b].lo, d.boxes[b].hi);
    case QueryKind::kRTree:
      return ex.RangeViaRTree(d.boxes[b].lo, d.boxes[b].hi);
    case QueryKind::kKnn:
      return ex.KnnViaWindow(op.index, kKnnK, kKnnWindow);
  }
  return {};
}

/// Checks an op's `matches` against the brute force; returns what is
/// wrong, or "" when it is right.
std::string CheckOp(const Dataset& d, const QueryOp& op,
                    const QueryResultStats& stats) {
  const int64_t expected =
      op.kind == QueryKind::kKnn
          ? ExpectedKnnMatches(d.points->size(), d.reference.RankOf(op.index))
          : d.answers[static_cast<size_t>(op.index)].matches;
  if (stats.matches == expected) return "";
  return std::string(OpName(op.kind)) + " on " + d.name + " #" +
         std::to_string(op.index) + ": " + std::to_string(stats.matches) +
         " matches, want " + std::to_string(expected);
}

/// Replays the index calls an op's plan makes, as children of its span.
void ReplayIndex(const Dataset& d, const QueryOp& op, int64_t root,
                 int64_t request, Tracer* tracer) {
  if (op.kind == QueryKind::kKnn) return;
  const Box& box = d.boxes[static_cast<size_t>(op.index)];
  if (op.kind == QueryKind::kRTree) {
    std::vector<std::pair<int64_t, int64_t>> leaves;
    tracer->Time("index.rtree_range", root, request, [&] {
      return d.path->rtree.RangeQuery(box.lo, box.hi, nullptr, &leaves);
    });
    return;
  }
  std::vector<int64_t> matching;
  tracer->Time("index.rtree_range", root, request, [&] {
    return d.path->rtree.RangeQuery(box.lo, box.hi, &matching);
  });
  if (matching.empty()) return;
  tracer->Time("index.btree_scan", root, request, [&] {
    return d.path->rank_index.RangeScan(matching.front(), matching.back());
  });
}

/// Counters over the first pass of a phase. Passes are whole and the pool
/// state after any whole pass is the same, so these repeat exactly.
struct PassCounters {
  int64_t ops = 0;
  int64_t range_ops = 0;
  int64_t matches = 0;
  int64_t scanned = 0;
  int64_t btree_ops = 0;
  int64_t btree_nodes = 0;
  int64_t rtree_ops = 0;
  int64_t rtree_nodes = 0;
  int64_t pages_touched = 0;
  int64_t page_hits = 0;
  int64_t page_runs = 0;

  void Add(QueryKind kind, const QueryResultStats& s) {
    ++ops;
    pages_touched += s.pages_touched;
    page_hits += s.page_hits;
    page_runs += s.page_runs;
    if (kind == QueryKind::kKnn) return;
    ++range_ops;
    matches += s.matches;
    scanned += s.records_scanned;
    if (kind == QueryKind::kBTree) {
      ++btree_ops;
      btree_nodes += s.index_nodes_read;
    } else {
      ++rtree_ops;
      rtree_nodes += s.index_nodes_read;
    }
  }
};

struct Phase {
  LatencyHistogram latency;
  /// Wall time of the phase, the client's answer checks included.
  double wall_s = 0.0;
  PassCounters first_pass;
  double peak_rss_mb = 0.0;
};

/// Whole passes of the stream until `seconds` have passed (at least one).
Phase RunPhase(const std::vector<Dataset>& data,
               const std::vector<StreamOp>& stream, double seconds,
               Tracer* tracer, Report* report) {
  std::vector<spectral::QueryExecutor> executors;
  for (const Dataset& d : data) {
    executors.push_back(d.path->MakeExecutor(d.pool.get()));
  }
  Phase phase;
  const auto start = Clock::now();
  int64_t request = 0;
  for (int pass = 0;; ++pass) {
    if (pass > 0 && MsBetween(start, Clock::now()) >= seconds * 1e3) break;
    for (const StreamOp& s : stream) {
      const Dataset& d = data[s.dataset];
      const int64_t root =
          tracer ? tracer->Open(OpName(s.op.kind), -1, request) : -1;
      const auto t0 = Clock::now();
      const QueryResultStats stats = RunOp(d, executors[s.dataset], s.op);
      const auto t1 = Clock::now();
      if (std::string wrong = CheckOp(d, s.op, stats); !wrong.empty()) {
        report->FailOp(wrong);
      }
      if (tracer) {
        tracer->Close(root);
        ReplayIndex(d, s.op, root, request, tracer);
      }
      phase.latency.Add(MsBetween(t0, t1));
      report->CountAttempt();
      if (pass == 0) phase.first_pass.Add(s.op.kind, stats);
      ++request;
    }
  }
  phase.wall_s = MsBetween(start, Clock::now()) * 1e-3;
  phase.peak_rss_mb = PeakRssMb();
  return phase;
}

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

void RunQueryRange(const Args& args, Report* report) {
  std::vector<Dataset> data = MakeDatasets(args.seed, report);
  if (!report->correct()) return;
  const std::vector<StreamOp> stream = Interleave(data);

  // Set-up: BuildQueryPath for both datasets through a one-thread service,
  // then one pass of the stream to warm the pools.
  std::vector<double> build_ms;
  spectral::MappingServiceStats setup_stats;
  SetupTimer setup(
      [&] {
        spectral::MappingServiceOptions options;
        options.parallelism = 1;
        spectral::MappingService service(options);
        spectral::QueryPathOptions path_options;
        path_options.page_size = kPageSize;
        double ms = 0.0;
        for (Dataset& d : data) {
          const auto t0 = Clock::now();
          auto path = spectral::BuildQueryPath(MakeRequest(d), &service,
                                               path_options);
          ms += MsBetween(t0, Clock::now());
          if (!path.ok()) {
            report->FailCheck("BuildQueryPath " + d.name + ": " +
                                 path.status().ToString());
            return;
          }
          if (!SameOrder(path->ordering.order, d.reference)) {
            report->FailCheck(d.name + " query-path order differs from the "
                                  "direct engine's");
          }
          d.path.emplace(std::move(*path));
          d.pool = std::make_unique<spectral::LruBufferPool>(kPoolPages);
        }
        build_ms.push_back(ms);
        for (const StreamOp& s : stream) {
          const Dataset& d = data[s.dataset];
          const std::string wrong = CheckOp(
              d, s.op, RunOp(d, d.path->MakeExecutor(d.pool.get()), s.op));
          if (!wrong.empty()) report->FailCheck("set-up " + wrong);
        }
        setup_stats = service.stats();
        if (setup_stats.degraded_orders != 0) {
          report->FailCheck("query-range set-up served degraded orders");
        }
      },
      [&] {
        for (Dataset& d : data) {
          d.path.reset();
          d.pool.reset();
        }
      });
  setup.Run(kSetupReps);
  for (const Dataset& d : data) {
    if (!d.path) return;  // BuildQueryPath failed; reported
  }

  if (!args.trace) {
    const Phase phase = RunPhase(data, stream, args.seconds, nullptr, report);
    setup.Run(kSetupReps);
    PageTally pages;
    for (size_t k = 0; k < data.size(); ++k) {
      pages.Add(EvaluatePages(*data[k].points, data[k].reference,
                              data[k].boxes, SubSeed(args.seed, kStreamTag, k),
                              report, data[k].name));
    }
    report->Add("setup_s", setup.MedianSeconds(), "s");
    report->Add("latency_p50_ms", phase.latency.Quantile(0.50), "ms");
    report->Add("latency_p90_ms", phase.latency.Quantile(0.90), "ms");
    PrintUngatedP99(phase.latency);
    report->Add("ops_per_s", phase.latency.count() / phase.wall_s, "1/s");
    report->Add("peak_rss_mb", phase.peak_rss_mb, "MB");
    report->Add("range_pages_mean", pages.pages_mean(), "pages");
    report->Add("range_pages_max", static_cast<double>(pages.pages_max),
                "pages");
    report->Add("page_io_per_query", pages.io_per_query(), "pages");
    return;
  }

  const Phase untraced =
      RunPhase(data, stream, args.seconds / 2, nullptr, report);
  Tracer tracer;
  const Phase traced = RunPhase(data, stream, args.seconds / 2, &tracer,
                                report);

  report->Add("query.btree_range_us",
              tracer.MedianMs("query.btree_range") * 1e3, "us");
  report->Add("query.rtree_range_us",
              tracer.MedianMs("query.rtree_range") * 1e3, "us");
  report->Add("query.knn_us", tracer.MedianMs("query.knn") * 1e3, "us");
  const PassCounters& c = traced.first_pass;
  report->Add("query.scanned_per_match", Ratio(c.scanned, c.matches),
              "ratio");
  report->Add("query.build_path_ms", Median(build_ms), "ms");
  for (size_t k = 0; k < data.size(); ++k) {
    const PageTally pages =
        EvaluatePages(*data[k].points, data[k].reference, data[k].boxes,
                      SubSeed(args.seed, kStreamTag, k), report, data[k].name);
    report->Add("query.range_pages_mean." + data[k].name, pages.pages_mean(),
                "pages");
    report->Add("query.range_pages_max." + data[k].name,
                static_cast<double>(pages.pages_max), "pages");
  }
  report->Add("index.rtree_nodes_per_query",
              Ratio(c.rtree_nodes, c.rtree_ops), "count");
  report->Add("index.btree_nodes_per_query",
              Ratio(c.btree_nodes, c.btree_ops), "count");
  report->Add("storage.pool_hit_rate", Ratio(c.page_hits, c.pages_touched),
              "fraction");
  report->Add("storage.page_runs_per_query", Ratio(c.page_runs, c.ops),
              "count");

  std::vector<double> solve_ms;
  for (const Dataset& d : data) solve_ms.push_back(d.reference_ms);
  report->Add("core.solve_ms.spectral", Median(solve_ms), "ms");
  report->Add("core.solves", static_cast<double>(setup_stats.solves),
              "count");
  report->Add("core.cache_hit_rate",
              Ratio(setup_stats.cache_hits, setup_stats.requests),
              "fraction");
  report->Add("core.degraded_orders",
              static_cast<double>(setup_stats.degraded_orders), "count");

  const double untraced_p50 = untraced.latency.Quantile(0.5);
  report->Add("trace.overhead_frac",
              untraced_p50 > 0.0
                  ? traced.latency.Quantile(0.5) / untraced_p50 - 1.0
                  : 0.0,
              "fraction");
  report->Add("trace.unattributed_frac",
              tracer.UnattributedFrac(
                  {"query.btree_range", "query.rtree_range", "query.knn"}),
              "fraction");
  WriteTrace(tracer, args);
}

}  // namespace perfbench
