// serve-zipf: the daemon's path. An in-process OrderingServer listens on
// loopback TCP (StartTcp) with spectral_serve's defaults for window_ms and
// max_batch, a one-thread MappingService, and an order cache of 36 entries
// for a universe of 64 distinct requests. One client thread drives two
// connections with poll(), each keeping one ORDER outstanding; traffic is
// the library's serving traffic model (MakeZipfianRequestMix): a Zipf(0.99)
// trace of GRID payloads (sides 8-32) over spectral, bisection and hilbert.
//
// About 83% of requests hit the cache, so the serving layers set the
// median; the misses run solves and, with the hits queued behind them, set
// p90 and the tail. Cache inserts and evictions run beside the hits, and
// two connections make the aggregation window batch and coalesce for real.
// The cache size keeps p90 clear of the knee between hits and solves: with
// 48 entries (92% hits) the 89th, 90th and 91st percentiles read 8.5, 10.5
// and 12.8 ms, so p90 moved by a fifth when the hit share moved by one
// point; with 36 (83% hits) they read 25.7, 26.9 and 28.3 ms.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <string_view>

#include "perfbench/src/common.h"
#include "serve/ordering_server.h"
#include "serve/wire.h"
#include "workload/trace.h"

namespace perfbench {
namespace {

using spectral::Coord;
using spectral::OrderingRequest;
using spectral::OrderingResult;
using spectral::OrderingServer;
using spectral::OrderingServerStats;

constexpr int kUniverse = 64;
constexpr size_t kCacheEntries = 36;
constexpr int kConnections = 2;
// Longer than any run's op count at today's speed; the trace wraps around.
constexpr int64_t kTraceLength = 1 << 17;
// Set-ups per group (see SetupTimer); each solves the whole universe.
constexpr int kSetupReps = 3;
constexpr uint64_t kTraceTag = 11;
constexpr uint64_t kPagesTag = 12;
// A reply slower than this means the server is stuck, not slow.
constexpr int kPollTimeoutMs = 60000;

/// One distinct request of the universe, with the answer it must get.
struct Entry {
  OrderingRequest request;
  Coord s0 = 0;
  Coord s1 = 0;
  OrderingResult reference;
  double solve_ms = 0.0;
  /// " <n> <rank of point 0> ..." — the ORDERED line after its id.
  std::string expected_tail;
};

/// The traffic: the universe with its reference answers, the Zipf trace of
/// universe indices, and where in the trace the seed starts sending.
struct Traffic {
  std::vector<Entry> universe;
  std::vector<int> trace;
  size_t start = 0;
};

/// The library's mix with its own default seed, so the universe, its
/// popularity ranks and the trace are the same for every workload seed; the
/// seed draws where in the trace the run starts. A universe drawn from the
/// workload seed changed which grids are cold from seed to seed: over five
/// seeds p90, p99 and ops_per_s spread by .30, .27 and .21 of their medians
/// and the page metrics by up to .41.
Traffic MakeTraffic(uint64_t seed, Report* report) {
  spectral::ZipfianRequestMixOptions options;
  options.num_requests = kTraceLength;
  options.universe_size = kUniverse;
  options.zipf_exponent = 0.99;
  options.engines = {"spectral", "bisection", "hilbert"};
  options.min_side = 8;
  options.max_side = 32;
  spectral::ZipfianRequestMix mix = spectral::MakeZipfianRequestMix(options);

  Traffic traffic;
  traffic.trace = std::move(mix.trace);
  traffic.start = SubSeed(seed, kTraceTag, 0) % traffic.trace.size();
  traffic.universe.resize(mix.universe.size());
  for (size_t j = 0; j < mix.universe.size(); ++j) {
    Entry& e = traffic.universe[j];
    e.request = std::move(mix.universe[j]);
    std::vector<Coord> lo, hi;
    e.request.points->Bounds(&lo, &hi);  // a full grid from the origin
    e.s0 = static_cast<Coord>(hi[0] + 1);
    e.s1 = static_cast<Coord>(hi[1] + 1);
    auto engine = spectral::MakeOrderingEngine(e.request.engine);
    const auto t0 = Clock::now();
    auto result = (*engine)->Order(e.request);
    e.solve_ms = MsBetween(t0, Clock::now());
    if (!result.ok() || !IsPermutation(result->order)) {
      report->FailCheck("reference solve of universe entry " +
                        std::to_string(j));
      continue;
    }
    e.reference = std::move(*result);
    const int64_t n = e.reference.order.size();
    e.expected_tail = " " + std::to_string(n);
    for (int64_t i = 0; i < n; ++i) {
      e.expected_tail += " " + std::to_string(e.reference.order.RankOf(i));
    }
  }
  return traffic;
}

std::string OrderLine(const Entry& e, int64_t id) {
  return "ORDER " + std::to_string(id) + " " + e.request.engine + " GRID " +
         std::to_string(e.s0) + "x" + std::to_string(e.s1);
}

/// Universe indices by how often the trace asks for them, least often
/// first: the cache warm-up's sending order.
std::vector<int> ByTraceFrequency(const Traffic& traffic) {
  std::vector<int64_t> count(traffic.universe.size(), 0);
  for (int j : traffic.trace) ++count[static_cast<size_t>(j)];
  std::vector<int> order(traffic.universe.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return count[static_cast<size_t>(a)] < count[static_cast<size_t>(b)];
  });
  return order;
}

/// The load generator: kConnections loopback connections, each with at
/// most one ORDER outstanding, served by one thread that blocks in poll().
class Client {
 public:
  explicit Client(const std::vector<Entry>* universe) : universe_(universe) {
    fds_.fill(-1);
  }
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(int port) {
    for (int& fd : fds_) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return false;
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      sockaddr_in addr = {};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        return false;
      }
    }
    return true;
  }

  void Close() {
    for (int& fd : fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }

  /// What one op of a loop saw; handed to the loop's callback.
  struct Done {
    int entry;
    int64_t id;
    Clock::time_point sent;
    Clock::time_point received;
    const std::string* line;
  };

  /// Closed loop: `next()` yields the next universe entry to send, or -1
  /// when the loop should stop sending; `done` sees every reply. Returns
  /// false if a connection failed or the server stopped answering.
  template <typename Next, typename OnDone>
  bool Loop(Next&& next, OnDone&& done, Report* report) {
    struct Slot {
      int entry = -1;
      int64_t id = 0;
      Clock::time_point sent;
      std::string buffer;
    };
    std::array<Slot, kConnections> slots;
    auto send = [&](size_t c) {
      const int entry = next();
      slots[c].entry = entry;
      if (entry < 0) return true;
      slots[c].id = next_id_++;
      const std::string line =
          OrderLine(universe_->at(static_cast<size_t>(entry)), slots[c].id) +
          "\n";
      slots[c].sent = Clock::now();
      return WriteAll(fds_[c], line);
    };
    for (size_t c = 0; c < slots.size(); ++c) {
      if (!send(c)) return false;
    }
    std::array<pollfd, kConnections> pfds;
    char chunk[1 << 16];
    for (;;) {
      int waiting = 0;
      for (size_t c = 0; c < slots.size(); ++c) {
        pfds[c] = {fds_[c], static_cast<short>(slots[c].entry >= 0 ? POLLIN : 0),
                   0};
        waiting += slots[c].entry >= 0;
      }
      if (waiting == 0) return true;
      const int ready = ::poll(pfds.data(), pfds.size(), kPollTimeoutMs);
      if (ready <= 0) {
        report->FailCheck("no reply within " +
                             std::to_string(kPollTimeoutMs) + " ms");
        return false;
      }
      for (size_t c = 0; c < slots.size(); ++c) {
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t got = ::recv(fds_[c], chunk, sizeof(chunk), 0);
        if (got <= 0) {
          report->FailCheck("connection closed by the server");
          return false;
        }
        Slot& slot = slots[c];
        slot.buffer.append(chunk, static_cast<size_t>(got));
        const size_t eol = slot.buffer.find('\n');
        if (eol == std::string::npos) continue;
        const auto now = Clock::now();
        const std::string line = slot.buffer.substr(0, eol);
        slot.buffer.erase(0, eol + 1);
        done(Done{slot.entry, slot.id, slot.sent, now, &line});
        if (!send(c)) return false;
      }
    }
  }

 private:
  static bool WriteAll(int fd, const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  std::array<int, kConnections> fds_;
  const std::vector<Entry>* universe_;
  int64_t next_id_ = 0;
};

/// Checks one reply against its entry's reference: byte-identical ranks.
/// Returns what is wrong (a typed ERROR such as a shed or expired request,
/// or a differing order), or "" when the reply is right.
std::string CheckReply(const Entry& entry, const Client::Done& d) {
  const std::string& line = *d.line;
  const std::string head = "ORDERED " + std::to_string(d.id);
  if (line.compare(0, head.size(), head) == 0 &&
      std::string_view(line).substr(head.size()) == entry.expected_tail) {
    return "";
  }
  if (line.rfind("ERROR ", 0) == 0) {
    return "request " + std::to_string(d.id) + ": " + line;
  }
  return "request " + std::to_string(d.id) + " (" + entry.request.engine +
         " " +
         std::to_string(entry.s0) + "x" + std::to_string(entry.s1) +
         ") reply differs from the direct engine's order";
}

struct Serving {
  std::unique_ptr<OrderingServer> server;
  std::unique_ptr<Client> client;
};

/// Server start plus cache warm-up: every universe entry once, in
/// `warmup` order (least often asked for first), so the cache ends holding
/// the entries the trace asks for most.
bool StartServing(const std::vector<Entry>& universe,
                  const std::vector<int>& warmup, Serving* serving,
                  Report* report) {
  spectral::OrderingServerOptions options;
  options.service.parallelism = 1;
  options.service.cache_capacity = kCacheEntries;
  serving->server = std::make_unique<OrderingServer>(options);
  auto port = serving->server->StartTcp(0);
  if (!port.ok()) {
    report->FailCheck("StartTcp: " + port.status().ToString());
    return false;
  }
  serving->client = std::make_unique<Client>(&universe);
  if (!serving->client->Connect(*port)) {
    report->FailCheck("connect to the ordering server");
    return false;
  }
  size_t next = 0;
  return serving->client->Loop(
      [&] { return next < warmup.size() ? warmup[next++] : -1; },
      [&](const Client::Done& d) {
        const std::string wrong =
            CheckReply(universe[static_cast<size_t>(d.entry)], d);
        if (!wrong.empty()) report->FailCheck("warm-up " + wrong);
      },
      report);
}

struct Phase {
  LatencyHistogram latency;
  /// Wall time from the first send to the last reply.
  double wall_s = 0.0;
  OrderingServerStats stats;
  double peak_rss_mb = 0.0;
};

/// One timed closed-loop phase of `seconds` on the warm server, sending
/// the trace from `*cursor` on (wrapping around). Replies to requests
/// already in flight when the time is up still count.
Phase RunPhase(const Traffic& traffic, Serving* serving, size_t* cursor,
               double seconds, Tracer* tracer, Report* report) {
  serving->server->ResetStats();
  Phase phase;
  const auto start = Clock::now();
  auto last = start;
  int64_t op = 0;
  serving->client->Loop(
      [&]() -> int {
        if (MsBetween(start, Clock::now()) >= seconds * 1e3) return -1;
        const int entry = traffic.trace[*cursor];
        *cursor = (*cursor + 1) % traffic.trace.size();
        return entry;
      },
      [&](const Client::Done& d) {
        const Entry& entry = traffic.universe[static_cast<size_t>(d.entry)];
        phase.latency.Add(MsBetween(d.sent, d.received));
        last = d.received;
        report->CountAttempt();
        if (std::string wrong = CheckReply(entry, d); !wrong.empty()) {
          report->FailOp(wrong);
        }
        if (tracer == nullptr) return;
        // The op span is the client's send -> reply; the wire-layer calls
        // are replayed on the same request and reply as its children.
        const int64_t root = tracer->Record("op", -1, op, d.sent, d.received);
        const std::string line = OrderLine(entry, d.id);
        auto parsed = tracer->Time("serve.parse", root, op, [&] {
          return spectral::ParseWireRequest(line);
        });
        if (parsed.ok()) {
          tracer->Time("core.fingerprint", root, op,
                       [&] { return parsed->request.Fingerprint(); });
        }
        tracer->Time("serve.format", root, op, [&] {
          return spectral::FormatOrderedResponse(std::to_string(d.id),
                                                 entry.reference);
        });
        ++op;
      },
      report);
  phase.wall_s = MsBetween(start, last) * 1e-3;
  phase.stats = serving->server->stats();
  phase.peak_rss_mb = PeakRssMb();
  return phase;
}

PageTally UniversePages(const std::vector<Entry>& universe, uint64_t seed,
                        Report* report) {
  PageTally pages;
  for (size_t j = 0; j < universe.size(); ++j) {
    const Entry& e = universe[j];
    const Coord box = std::max<Coord>(2, std::min(e.s0, e.s1) / 4);
    const Coord stride = std::max<Coord>(1, box - 1);
    pages.Add(EvaluatePages(*e.request.points, e.reference.order,
                            SlidingBoxes(0, 0, e.s0, e.s1, box, stride),
                            SubSeed(seed, kPagesTag, j), report,
                            "serve-zipf entry " + std::to_string(j)));
  }
  return pages;
}

void AddPerLayer(const std::vector<Entry>& universe, const Phase& untraced,
                 const Phase& traced, const Tracer& tracer, Report* report) {
  report->Add("serve.parse_us", tracer.MedianMs("serve.parse") * 1e3, "us");
  report->Add("serve.format_us", tracer.MedianMs("serve.format") * 1e3, "us");
  report->Add("core.fingerprint_us",
              tracer.MedianMs("core.fingerprint") * 1e3, "us");
  const OrderingServerStats& s = traced.stats;
  report->Add("serve.server_p50_ms", s.p50_ms, "ms");
  report->Add("serve.server_warm_p50_ms", s.warm_p50_ms, "ms");
  report->Add("serve.server_cold_p50_ms", s.cold_p50_ms, "ms");
  report->Add("serve.wire_ms", traced.latency.Quantile(0.5) - s.p50_ms,
              "ms");
  report->Add("serve.max_queue_depth", static_cast<double>(s.max_queue_depth),
              "count");

  for (const char* engine : {"spectral", "bisection", "hilbert"}) {
    std::vector<double> ms;
    for (const Entry& e : universe) {
      if (e.request.engine == engine) ms.push_back(e.solve_ms);
    }
    report->Add(std::string("core.solve_ms.") + engine, Median(ms), "ms");
  }
  const spectral::MappingServiceStats& m = s.service;
  report->Add("core.cache_hit_rate",
              m.requests > 0 ? static_cast<double>(m.cache_hits) / m.requests
                             : 0.0,
              "fraction");
  report->Add("core.solves", static_cast<double>(m.solves), "count");
  report->Add("core.coalesced", static_cast<double>(m.coalesced_requests),
              "count");
  report->Add("core.evictions", static_cast<double>(m.cache_evictions),
              "count");
  report->Add("core.batch_size_mean",
              m.batches > 0 ? static_cast<double>(m.requests) / m.batches
                            : 0.0,
              "count");
  report->Add("core.batch_ms_mean",
              m.batches > 0 ? m.batch_latency_total_ms / m.batches : 0.0,
              "ms");
  report->Add("core.degraded_orders",
              static_cast<double>(m.degraded_orders +
                                  untraced.stats.service.degraded_orders),
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

void RunServeZipf(const Args& args, Report* report) {
  const Traffic traffic = MakeTraffic(args.seed, report);
  if (!report->correct()) return;
  const std::vector<Entry>& universe = traffic.universe;
  const std::vector<int> warmup = ByTraceFrequency(traffic);

  Serving serving;
  bool started = true;
  SetupTimer setup(
      [&] {
        started = StartServing(universe, warmup, &serving, report) && started;
      },
      [&] {
        serving.client.reset();
        serving.server.reset();
      });
  setup.Run(kSetupReps);
  if (!started) return;

  size_t cursor = traffic.start;
  if (!args.trace) {
    const Phase phase =
        RunPhase(traffic, &serving, &cursor, args.seconds, nullptr, report);
    setup.Run(kSetupReps);
    const PageTally pages = UniversePages(universe, args.seed, report);
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
    if (phase.stats.service.degraded_orders != 0) {
      report->FailCheck("serve-zipf served degraded orders");
    }
    return;
  }

  const Phase untraced = RunPhase(traffic, &serving, &cursor,
                                  args.seconds / 2, nullptr, report);
  Tracer tracer;
  const Phase traced = RunPhase(traffic, &serving, &cursor, args.seconds / 2,
                                &tracer, report);
  if (untraced.stats.service.degraded_orders +
          traced.stats.service.degraded_orders !=
      0) {
    report->FailCheck("serve-zipf served degraded orders");
  }
  AddPerLayer(universe, untraced, traced, tracer, report);
  WriteTrace(tracer, args);
}

}  // namespace perfbench
