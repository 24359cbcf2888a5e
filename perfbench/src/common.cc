#include "perfbench/src/common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <iostream>
#include <sstream>
#include <thread>

#include "index/bplus_tree.h"
#include "index/packed_rtree.h"
#include "query/executor.h"
#include "storage/buffer_pool.h"
#include "storage/layout.h"
#include "util/random.h"

namespace perfbench {

using spectral::Coord;
using spectral::LinearOrder;
using spectral::PointSet;

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::FailOp(const std::string& what) {
  ++failed_;
  if (failed_ + failed_checks_ <= 10) {
    std::cerr << "perfbench: FAILED " << what << "\n";
  }
}

void Report::FailCheck(const std::string& what) {
  ++failed_checks_;
  if (failed_ + failed_checks_ <= 10) {
    std::cerr << "perfbench: FAILED " << what << "\n";
  }
}

std::string Report::Conform(
    const std::vector<std::pair<std::string, std::string>>& names,
    bool zero_fill) {
  std::vector<Entry> ordered;
  for (const auto& [name, unit] : names) {
    auto it = std::find_if(metrics_.begin(), metrics_.end(),
                           [&](const Entry& e) { return e.name == name; });
    if (it == metrics_.end()) {
      if (!zero_fill) return "workload did not produce " + name;
      ordered.push_back({name, 0.0, unit});
      continue;
    }
    ordered.push_back({name, it->value, unit});
    metrics_.erase(it);
  }
  if (!metrics_.empty()) return "unlisted metric " + metrics_.front().name;
  metrics_ = std::move(ordered);
  return "";
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << metrics_[i].name << "\": {\"value\": "
        << JsonNumber(metrics_[i].value) << ", \"unit\": \""
        << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

namespace {
constexpr double kHistMinMs = 1e-4;
constexpr double kHistLogWidth = 0.0005;
constexpr size_t kHistBins = 46100;  // up to ~1000 s
}  // namespace

LatencyHistogram::LatencyHistogram() : bins_(kHistBins, 0) {}

void LatencyHistogram::Add(double ms) {
  const double pos = std::log(std::max(ms, kHistMinMs) / kHistMinMs) /
                     kHistLogWidth;
  bins_[std::min(static_cast<size_t>(pos), kHistBins - 1)] += 1;
  ++count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_ - 1);
  double before = 0.0;
  for (size_t b = 0; b < bins_.size(); ++b) {
    const double in_bin = bins_[b];
    if (in_bin > 0.0 && target < before + in_bin) {
      const double frac = (target - before + 0.5) / in_bin;
      return kHistMinMs *
             std::exp((static_cast<double>(b) + frac) * kHistLogWidth);
    }
    before += in_bin;
  }
  return kHistMinMs * std::exp(static_cast<double>(kHistBins) * kHistLogWidth);
}

void PrintUngatedP99(const LatencyHistogram& latency) {
  std::cout << "# ungated: latency_p99_ms=" << latency.Quantile(0.99)
            << " over " << latency.count() << " ops\n";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void SetupTimer::Run(int reps) {
  for (int r = 0; r < reps; ++r) {
    teardown_();
    const auto t0 = Clock::now();
    setup_();
    seconds_.push_back(MsBetween(t0, Clock::now()) * 1e-3);
  }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int64_t Tracer::Open(const char* name, int64_t parent, int64_t request) {
  spans_.push_back(Span{name, NowNs(), 0, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Close(int64_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int64_t Tracer::Record(const char* name, int64_t parent, int64_t request,
                       Clock::time_point start, Clock::time_point end) {
  auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  spans_.push_back(Span{name, ns(start), ns(end), parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> Tracer::SelfMs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.ms();
  }
  return self;
}

double Tracer::MedianMs(const std::string& name) const {
  std::map<int64_t, double> per_request;
  for (const Span& s : spans_) {
    if (name == s.name) per_request[s.request] += s.ms();
  }
  std::vector<double> values;
  for (const auto& [request, ms] : per_request) values.push_back(ms);
  return Median(values);
}

double Tracer::MedianSelfMs(const std::string& name) const {
  const std::vector<double> self = SelfMs();
  std::map<int64_t, double> per_request;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) per_request[spans_[i].request] += self[i];
  }
  std::vector<double> values;
  for (const auto& [request, ms] : per_request) values.push_back(ms);
  return Median(values);
}

double Tracer::UnattributedFrac(
    const std::vector<std::string>& op_names) const {
  const std::vector<double> self = SelfMs();
  double total = 0.0;
  double uncovered = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0 ||
        std::find(op_names.begin(), op_names.end(), spans_[i].name) ==
            op_names.end()) {
      continue;
    }
    total += spans_[i].ms();
    uncovered += std::max(0.0, self[i]);
  }
  return total > 0.0 ? uncovered / total : 0.0;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tname\trequest\tparent\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.name << '\t' << s.request << '\t' << s.parent
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

void WriteTrace(const Tracer& tracer, const Args& args) {
  const std::string dir = ".bench_build/perfbench/traces";
  std::error_code ignored;
  std::filesystem::create_directories(dir, ignored);
  const std::string path = dir + "/" + args.workload + ".tsv";
  if (!tracer.WriteTsv(path)) {
    std::cerr << "perfbench: could not write " << path << "\n";
    return;
  }
  std::cout << "# trace: " << tracer.spans().size() << " spans -> " << path
            << "\n";
}

// ---------------------------------------------------------------------------
// Answers and page metrics
// ---------------------------------------------------------------------------

bool IsPermutation(const LinearOrder& order) {
  const int64_t n = order.size();
  std::vector<char> seen(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t r = order.RankOf(i);
    if (r < 0 || r >= n || seen[static_cast<size_t>(r)]) return false;
    seen[static_cast<size_t>(r)] = 1;
  }
  return true;
}

bool SameOrder(const LinearOrder& order, const LinearOrder& reference) {
  if (order.size() != reference.size() || !IsPermutation(order)) return false;
  for (int64_t i = 0; i < order.size(); ++i) {
    if (order.RankOf(i) != reference.RankOf(i)) return false;
  }
  return true;
}

std::vector<Box> SlidingBoxes(Coord origin_x, Coord origin_y, Coord extent_x,
                              Coord extent_y, Coord box, Coord stride) {
  std::vector<Box> boxes;
  for (Coord y = 0; y + box <= extent_y; y += stride) {
    for (Coord x = 0; x + box <= extent_x; x += stride) {
      boxes.push_back(Box{{static_cast<Coord>(origin_x + x),
                           static_cast<Coord>(origin_y + y)},
                          {static_cast<Coord>(origin_x + x + box - 1),
                           static_cast<Coord>(origin_y + y + box - 1)}});
    }
  }
  return boxes;
}

BoxAnswer BruteForceBox(const PointSet& points, const LinearOrder& order,
                        const Box& box, int64_t page_size) {
  BoxAnswer answer;
  int64_t min_rank = order.size();
  int64_t max_rank = -1;
  for (int64_t i = 0; i < points.size(); ++i) {
    const auto p = points[i];
    bool inside = true;
    for (int a = 0; a < points.dims(); ++a) {
      const size_t axis = static_cast<size_t>(a);
      if (p[axis] < box.lo[axis] || p[axis] > box.hi[axis]) {
        inside = false;
        break;
      }
    }
    if (!inside) continue;
    ++answer.matches;
    const int64_t r = order.RankOf(i);
    min_rank = std::min(min_rank, r);
    max_rank = std::max(max_rank, r);
  }
  if (answer.matches > 0) {
    answer.interval_pages = max_rank / page_size - min_rank / page_size + 1;
  }
  return answer;
}

std::vector<QueryOp> MakeQueryStream(int64_t num_points, int64_t num_boxes,
                                     uint64_t seed) {
  spectral::Rng rng(seed);
  std::vector<QueryOp> ops;
  for (int64_t b = 0; b < num_boxes; ++b) {
    ops.push_back({QueryKind::kBTree, b});
    ops.push_back({QueryKind::kRTree, b});
  }
  const int64_t probes = std::min<int64_t>(num_points, num_boxes / 8 + 1);
  for (int64_t k = 0; k < probes; ++k) {
    ops.push_back({QueryKind::kKnn, rng.UniformInt(0, num_points - 1)});
  }
  rng.Shuffle(ops);
  return ops;
}

int64_t ExpectedKnnMatches(int64_t num_points, int64_t rank) {
  const int64_t lo = std::max<int64_t>(0, rank - kKnnWindow);
  const int64_t hi = std::min<int64_t>(num_points - 1, rank + kKnnWindow);
  return std::min<int64_t>(kKnnK, hi - lo);
}

void PageTally::Add(const PageTally& other) {
  boxes += other.boxes;
  pages += other.pages;
  pages_max = std::max(pages_max, other.pages_max);
  queries += other.queries;
  page_io += other.page_io;
}

PageTally EvaluatePages(const PointSet& points, const LinearOrder& order,
                        std::span<const Box> boxes, uint64_t seed,
                        Report* report, const std::string& label) {
  const spectral::StorageLayout layout(order, kPageSize);
  const auto rank_index = spectral::StaticBPlusTree::BuildRankIndex(order);
  const auto rtree = spectral::PackedRTree::Build(points, order);
  spectral::LruBufferPool pool(kPoolPages);
  const spectral::QueryExecutor executor(points, layout, rank_index, rtree,
                                         &pool);

  std::vector<BoxAnswer> answers;
  answers.reserve(boxes.size());
  for (const Box& box : boxes) {
    answers.push_back(BruteForceBox(points, order, box, kPageSize));
  }

  PageTally tally;
  const auto stream = MakeQueryStream(points.size(),
                                      static_cast<int64_t>(boxes.size()), seed);
  for (const QueryOp& op : stream) {
    spectral::QueryResultStats stats;
    const size_t b = static_cast<size_t>(op.index);
    switch (op.kind) {
      case QueryKind::kBTree:
        stats = executor.RangeViaBTree(boxes[b].lo, boxes[b].hi);
        if (stats.matches != answers[b].matches ||
            stats.pages_touched != answers[b].interval_pages) {
          report->FailCheck(label + " B+-tree box " + std::to_string(b));
        }
        tally.boxes += 1;
        tally.pages += stats.pages_touched;
        tally.pages_max = std::max(tally.pages_max, stats.pages_touched);
        break;
      case QueryKind::kRTree:
        stats = executor.RangeViaRTree(boxes[b].lo, boxes[b].hi);
        if (stats.matches != answers[b].matches) {
          report->FailCheck(label + " R-tree box " + std::to_string(b));
        }
        break;
      case QueryKind::kKnn:
        stats = executor.KnnViaWindow(op.index, kKnnK, kKnnWindow);
        if (stats.matches !=
            ExpectedKnnMatches(points.size(), order.RankOf(op.index))) {
          report->FailCheck(label + " kNN probe " + std::to_string(op.index));
        }
        break;
    }
    tally.queries += 1;
    tally.page_io += stats.page_io;
  }
  return tally;
}

void ParallelFor(int64_t n, int threads,
                 const std::function<void(int64_t)>& fn) {
  std::atomic<int64_t> next{0};
  auto worker = [&] {
    for (int64_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

uint64_t SubSeed(uint64_t seed, uint64_t tag, uint64_t index) {
  uint64_t state = seed ^ (tag * 0x9E3779B97F4A7C15ull);
  spectral::SplitMix64(state);
  state ^= index * 0xBF58476D1CE4E5B9ull;
  return spectral::SplitMix64(state);
}

}  // namespace perfbench
