// Shared pieces of the benchmark: command-line arguments, the metric
// report (the JSON line the benchmark ends with), percentiles, the
// in-memory span recorder of the traced run, and the answer checks and
// page metrics every workload uses.
//
// Everything here lives in the benchmark, not in src/: spans are recorded
// around calls into the library's public functions, so the library itself
// is measured exactly as it ships.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/linear_order.h"
#include "core/ordering_engine.h"
#include "space/point_set.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Commit (or source digest) of the tree under test; header only.
  std::string commit = "unknown";
};

/// Every metric the run prints, in insertion order, plus the answer-check
/// tally. The last stdout line is this report as one JSON object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// One timed op was attempted.
  void CountAttempt() { ++attempted_; }
  /// A timed op failed or answered wrong (an ERROR reply, a shed or expired
  /// request, a degraded order, an order or count that differs from the
  /// reference). The first few failures of any kind go to stderr.
  void FailOp(const std::string& what);
  /// Any other check failed: a set-up answer, a page count of a produced
  /// order, a reference solve. The run is wrong, but no op is counted.
  void FailCheck(const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && failed_checks_ == 0; }

  /// Puts the metrics in the order of `names` (name, unit) and stamps
  /// their units. A listed metric that is missing is an error unless
  /// `zero_fill` (then it reads 0); an unlisted one is always an error.
  /// Returns "" on success, else what is wrong.
  std::string Conform(
      const std::vector<std::pair<std::string, std::string>>& names,
      bool zero_fill);

  /// The final JSON line.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t failed_checks_ = 0;
};

/// Op latencies in a fixed-size log-scale histogram (bins 0.05% wide from
/// 100 ns up), so a run's memory does not grow with its op count and
/// peak_rss_mb measures the program, not the benchmark's sample buffer.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double ms);
  int64_t count() const { return count_; }
  /// Quantile (q in [0, 1]), interpolated inside the bin; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<uint32_t> bins_;
  int64_t count_ = 0;
};

/// Prints the timed phase's 99th percentile as a "# " header line. It is
/// not an end-to-end metric: runs of the same code spread it past the
/// largest bound BENCHMARK.json allows (README.md, "Measured spread").
void PrintUngatedP99(const LatencyHistogram& latency);

/// Median of a sample (the mean of the middle two for an even count); 0 for
/// an empty one.
double Median(std::vector<double> values);

/// Peak resident set of this process in MB (VmHWM).
double PeakRssMb();

/// The setup_s metric: the median over repeated timed calls of a
/// workload's set-up. A workload runs one group of calls before its timed
/// phase (the last call builds what the phase uses) and, in an untraced
/// run, a second group after it. Calls in a row agree within a few
/// percent, but the host's speed drifts over seconds; the second group,
/// taken a run length later, keeps one slow stretch from deciding the
/// figure.
class SetupTimer {
 public:
  /// `teardown` (untimed) drops what the previous `setup` built.
  SetupTimer(std::function<void()> setup, std::function<void()> teardown)
      : setup_(std::move(setup)), teardown_(std::move(teardown)) {}
  /// Runs teardown, then times setup, `reps` times.
  void Run(int reps);
  double MedianSeconds() const { return Median(seconds_); }

 private:
  std::function<void()> setup_;
  std::function<void()> teardown_;
  std::vector<double> seconds_;
};

// ---------------------------------------------------------------------------
// Traced run: spans in memory, written out at exit.
// ---------------------------------------------------------------------------

/// One recorded span. `parent` is -1 for an op's root span; replayed calls
/// are recorded as children of the op they replay even though they run
/// after it, so a parent's self time is its duration minus its children's.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;
  int64_t request;
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class Tracer {
 public:
  Tracer();

  /// Opens a span and returns its id; Close stamps its end.
  int64_t Open(const char* name, int64_t parent, int64_t request);
  void Close(int64_t id);
  /// Records a span whose times the caller took.
  int64_t Record(const char* name, int64_t parent, int64_t request,
                 Clock::time_point start, Clock::time_point end);
  /// Re-parents a span recorded before its parent was opened.
  void SetParent(int64_t id, int64_t parent) {
    spans_[static_cast<size_t>(id)].parent = parent;
  }

  /// Runs `fn` inside a span and returns its result.
  template <typename Fn>
  auto Time(const char* name, int64_t parent, int64_t request, Fn&& fn) {
    const int64_t id = Open(name, parent, request);
    auto out = fn();
    Close(id);
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Median over requests of the summed duration of spans named `name`;
  /// 0 when no span has that name.
  double MedianMs(const std::string& name) const;
  /// Median over requests of the summed self time of spans named `name`.
  double MedianSelfMs(const std::string& name) const;
  /// Share of op time that no layer span covers: over the root spans
  /// named in `op_names`, sum(self time) / sum(duration).
  double UnattributedFrac(const std::vector<std::string>& op_names) const;

  /// Writes "id name request parent start_ns end_ns" rows (TSV).
  bool WriteTsv(const std::string& path) const;

 private:
  int64_t NowNs() const;
  std::vector<double> SelfMs() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Answers and page metrics.
// ---------------------------------------------------------------------------

/// True when `order` is a permutation of 0..n-1.
bool IsPermutation(const spectral::LinearOrder& order);

/// True when `order` is a permutation of 0..n-1 whose ranks equal
/// `reference`'s rank for rank.
bool SameOrder(const spectral::LinearOrder& order,
               const spectral::LinearOrder& reference);

/// An axis-aligned closed query box.
struct Box {
  std::vector<spectral::Coord> lo;
  std::vector<spectral::Coord> hi;
};

/// Square boxes of side `box` sliding at `stride` over the 2-d extent
/// [origin, origin + extent); the stride is chosen unaligned with page
/// and curve-block boundaries, as in the paper's Figure 6.
std::vector<Box> SlidingBoxes(spectral::Coord origin_x,
                              spectral::Coord origin_y,
                              spectral::Coord extent_x,
                              spectral::Coord extent_y, spectral::Coord box,
                              spectral::Coord stride);

/// Brute-force answer of one box against one order: the matching count
/// and the data pages of the rank interval spanning the matches (the
/// B+-tree plan's page run; 0 when nothing matches).
struct BoxAnswer {
  int64_t matches = 0;
  int64_t interval_pages = 0;
};
BoxAnswer BruteForceBox(const spectral::PointSet& points,
                        const spectral::LinearOrder& order, const Box& box,
                        int64_t page_size);

/// Page counts of one or more orders evaluated under the query path. Every
/// workload reports the same three end-to-end page metrics over the orders
/// it produced:
///   range_pages_mean / range_pages_max — B+-tree-plan pages per box;
///   page_io_per_query — LruBufferPool misses per query over one seeded
///     pass of B+-tree, R-tree and kNN queries from an empty 64-page pool.
struct PageTally {
  int64_t boxes = 0;
  int64_t pages = 0;
  int64_t pages_max = 0;
  int64_t queries = 0;
  int64_t page_io = 0;
  void Add(const PageTally& other);
  double pages_mean() const {
    return boxes == 0 ? 0.0 : static_cast<double>(pages) / boxes;
  }
  double io_per_query() const {
    return queries == 0 ? 0.0 : static_cast<double>(page_io) / queries;
  }
};

inline constexpr int64_t kPageSize = 32;
inline constexpr int64_t kPoolPages = 64;
inline constexpr int kKnnK = 10;
inline constexpr int64_t kKnnWindow = 32;

/// One query of a stream: a box (by index) under one of the two range
/// plans, or a kNN probe (by point index).
enum class QueryKind { kBTree, kRTree, kKnn };
struct QueryOp {
  QueryKind kind;
  int64_t index;
};

/// Every box under both range plans plus num_boxes/8 + 1 kNN probes at
/// seeded random points, in a seeded random order.
std::vector<QueryOp> MakeQueryStream(int64_t num_points, int64_t num_boxes,
                                     uint64_t seed);

/// What KnnViaWindow must return as `matches` for a point at `rank`: k,
/// unless the rank window holds fewer candidates.
int64_t ExpectedKnnMatches(int64_t num_points, int64_t rank);

/// Builds the query path of `order` over `points` (layout, rank B+-tree,
/// packed R-tree), checks every box's B+-tree-plan answer against the
/// brute force, and runs one pass of the box and kNN queries (order of the
/// pass shuffled by `seed`) through an empty kPoolPages pool. Wrong
/// answers are recorded on `report`.
PageTally EvaluatePages(const spectral::PointSet& points,
                        const spectral::LinearOrder& order,
                        std::span<const Box> boxes, uint64_t seed,
                        Report* report, const std::string& label);

/// Runs `fn(i)` for i in [0, n) on `threads` threads (reference
/// computations only; never inside a timed phase).
void ParallelFor(int64_t n, int threads, const std::function<void(int64_t)>& fn);

/// Mixes a workload seed with a stream tag and an index.
uint64_t SubSeed(uint64_t seed, uint64_t tag, uint64_t index);

// Workloads. Each fills `report` with the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run).
void RunMapCold(const Args& args, Report* report);
void RunServeZipf(const Args& args, Report* report);
void RunQueryRange(const Args& args, Report* report);

/// Writes the traced run's spans under .bench_build/perfbench/traces/.
void WriteTrace(const Tracer& tracer, const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
