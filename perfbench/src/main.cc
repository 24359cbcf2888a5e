// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload <map-cold|serve-zipf|query-range> --seed N
//             --seconds S --trace <0|1> [--commit C]
//
// Runs one closed-loop workload in this process, checks every answer, and
// prints a header of "# " lines followed by one JSON line: the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
// Exits 1 when any answer was wrong or any op failed, 2 on bad usage or a
// build that must not be timed. perfbench/run.py builds and invokes it.

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "perfbench/src/common.h"

namespace perfbench {
namespace {

// Names and units the untraced run must print (BENCHMARK.json end_to_end).
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
      {"range_pages_mean", "pages"},
      {"range_pages_max", "pages"},
      {"page_io_per_query", "pages"},
  };
  return kMetrics;
}

int Usage() {
  std::cerr << "usage: perfbench --workload <map-cold|serve-zipf|query-range>"
               " --seed N --seconds S --trace <0|1> [--commit C]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args->seconds <= 0.0) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

// Timing a debug or sanitizer build measures the instrumentation, not the
// program; such a build is refused outright.
bool OptimizedUninstrumentedBuild(std::string* why) {
#if !defined(__OPTIMIZE__)
  *why = "compiled without optimization";
  return false;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "compiled with a sanitizer";
  return false;
#else
  if (PERFBENCH_SPECTRAL_SANITIZE) {
    *why = "library compiled with SPECTRAL_SANITIZE";
    return false;
  }
  return true;
#endif
}

void PrintHeader(const Args& args) {
  std::cout << "# perfbench workload=" << args.workload
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << "\n"
            << "# env nproc=" << std::thread::hardware_concurrency()
            << " build=" << PERFBENCH_BUILD_TYPE << " compiler=\""
#if defined(__clang__)
            << "clang "
#elif defined(__GNUC__)
            << "gcc "
#endif
            << __VERSION__ << "\" SPECTRAL_FAULTS="
            << (PERFBENCH_SPECTRAL_FAULTS ? "on" : "off (as in production)")
            << " commit=" << args.commit << "\n"
            << "# noise: MappingService parallelism=1 and every request's "
               "spectral.parallelism=1; with the default 0 SpectralMapper "
               "builds a fresh hardware-concurrency ThreadPool per request, "
               "and a cold 4096-point order read 83-111 ms (bimodal) "
               "against 66.5-68.8 ms with one solver thread\n"
            << "# noise: one load-generator thread that blocks in poll() or "
               "on the call it times, never spinning; a busy-polling "
               "in-process client with the serve-zipf traffic read "
               "269-308 req/s\n"
            << "# noise: one workload per process, so peak_rss_mb is this "
               "workload's VmHWM\n";
}

// Names and units the traced run prints (BENCHMARK.json per_layer); a
// workload that does not exercise a layer reads 0 for it. README.md has
// the table of which end-to-end metric each should move.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"graph.point_graph_ms", "ms"},
      {"graph.components_ms", "ms"},
      {"graph.hierarchy_ms", "ms"},
      {"graph.components", "count"},
      {"eigen.fiedler_ms", "ms"},
      {"eigen.spmm_ms", "ms"},
      {"eigen.reorth_ms", "ms"},
      {"eigen.hfill_ms", "ms"},
      {"eigen.rr_ms", "ms"},
      {"eigen.cheb_ms", "ms"},
      {"eigen.spmm_gflops", "GFLOP/s"},
      {"eigen.reorth_gflops", "GFLOP/s"},
      {"eigen.cheb_gflops", "GFLOP/s"},
      {"eigen.matvecs", "count"},
      {"eigen.restarts", "count"},
      {"eigen.spmm_calls", "count"},
      {"eigen.reorth_panels", "count"},
      {"core.order_ms", "ms"},
      {"core.self_ms", "ms"},
      {"core.fingerprint_us", "us"},
      {"core.solve_ms.spectral", "ms"},
      {"core.solve_ms.bisection", "ms"},
      {"core.solve_ms.hilbert", "ms"},
      {"core.cache_hit_rate", "fraction"},
      {"core.solves", "count"},
      {"core.coalesced", "count"},
      {"core.evictions", "count"},
      {"core.batch_size_mean", "count"},
      {"core.batch_ms_mean", "ms"},
      {"core.degraded_orders", "count"},
      {"serve.parse_us", "us"},
      {"serve.format_us", "us"},
      {"serve.server_p50_ms", "ms"},
      {"serve.server_warm_p50_ms", "ms"},
      {"serve.server_cold_p50_ms", "ms"},
      {"serve.wire_ms", "ms"},
      {"serve.max_queue_depth", "count"},
      {"query.btree_range_us", "us"},
      {"query.rtree_range_us", "us"},
      {"query.knn_us", "us"},
      {"query.scanned_per_match", "ratio"},
      {"query.build_path_ms", "ms"},
      {"query.range_pages_mean.grid64x64", "pages"},
      {"query.range_pages_max.grid64x64", "pages"},
      {"query.range_pages_mean.clusters2k", "pages"},
      {"query.range_pages_max.clusters2k", "pages"},
      {"index.rtree_nodes_per_query", "count"},
      {"index.btree_nodes_per_query", "count"},
      {"storage.pool_hit_rate", "fraction"},
      {"storage.page_runs_per_query", "count"},
      {"trace.overhead_frac", "fraction"},
      {"trace.unattributed_frac", "fraction"},
  };
  return kMetrics;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  std::string why;
  if (!OptimizedUninstrumentedBuild(&why)) {
    std::cerr << "perfbench: refusing to time this build: " << why << "\n";
    return 2;
  }

  PrintHeader(args);
  Report report;
  if (args.workload == "map-cold") {
    RunMapCold(args, &report);
  } else if (args.workload == "serve-zipf") {
    RunServeZipf(args, &report);
  } else if (args.workload == "query-range") {
    RunQueryRange(args, &report);
  } else {
    return Usage();
  }

  // Every run prints the full metric set of its mode, so runs of different
  // workloads and commits line up name for name; a layer a workload does
  // not exercise reads 0 in the traced run, and a run that stopped at a
  // failed check reads 0 for what it did not reach.
  const auto& expected = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  const std::string problem = report.Conform(
      expected, /*zero_fill=*/args.trace || !report.correct());
  if (!problem.empty()) {
    std::cerr << "perfbench: " << problem << "\n";
    return 2;
  }
  std::cout << "# answers: attempted=" << report.attempted()
            << " failed=" << report.failed() << " failed_frac="
            << (report.attempted() > 0
                    ? static_cast<double>(report.failed()) /
                          static_cast<double>(report.attempted())
                    : 0.0)
            << "\n";
  std::cout << report.Json() << std::endl;
  return report.correct() ? 0 : 1;
}
