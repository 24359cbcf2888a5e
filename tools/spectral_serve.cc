// The ordering server daemon: wraps an OrderingServer and serves the
// line-delimited wire protocol (see src/serve/ordering_server.h for the
// grammar) over stdin/stdout or a loopback TCP port.
//
// Usage:
//   spectral_serve --stdio [options]        serve one session over the pipe
//   spectral_serve --port=N [options]       listen on 127.0.0.1:N (0 =
//                                           ephemeral; the bound port is
//                                           printed as "LISTENING <port>")
// Options:
//   --window-ms=MS     aggregation window for cache misses (default 1.0;
//                      cache hits are answered on arrival, unbatched)
//   --max-batch=K      max requests per dispatched batch (default 64)
//   --queue=N          admission bound; beyond it uncached submissions
//                      are shed (default 1024)
//   --deadline-ms=MS   default deadline for queued (uncached) requests,
//                      0 = none (default 0)
//   --cache=N          LRU order-cache capacity in entries (default 4096)
//   --parallelism=N    worker threads (0 = hardware concurrency)
//   --snapshot=PATH    restore the order cache from PATH on start (a
//                      missing snapshot starts cold; a corrupt one is
//                      quarantined to PATH.corrupt and starts cold) and
//                      save it back on clean exit
//   --faults=SPEC      arm the fault-injection registry (SPECTRAL_FAULTS
//                      builds only; a warning otherwise). SPEC is
//                      comma-separated site:probability or site:#i/j/k
//                      hit schedules, e.g.
//                      "solver.converge:1,snapshot.write:#0"
//   --fault-seed=N     seed for the fault registry's per-site streams
//                      (default 0x5EED5EED5EED5EED)
//
// In --stdio mode the process exits when the client sends QUIT or closes
// stdin. In --port mode it runs until SIGINT/SIGTERM, then drains and (with
// --snapshot) persists the cache; SIGHUP rotates the snapshot immediately
// (crash-safe, off the serving threads) without stopping.

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "serve/ordering_server.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace spectral {
namespace {

struct ServeArgs {
  bool stdio = false;
  int port = -1;
  std::string fault_spec;
  uint64_t fault_seed = 0x5EED5EED5EED5EEDull;
  OrderingServerOptions server;

  ServeArgs() { server.service.cache_capacity = 4096; }
};

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage() {
  std::cerr << "usage: spectral_serve (--stdio | --port=N) [--window-ms=MS] "
               "[--max-batch=K] [--queue=N] [--deadline-ms=MS] [--cache=N] "
               "[--parallelism=N] [--snapshot=PATH] [--faults=SPEC] "
               "[--fault-seed=N]\n";
  return 2;
}

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_rotate = 0;
void HandleStop(int) { g_stop = 1; }
void HandleRotate(int) { g_rotate = 1; }

int RunServer(const ServeArgs& args) {
  // Process-lifetime registry; the server (and everything below it) holds
  // a raw pointer, so it must outlive the OrderingServer.
  FaultInjector faults(args.fault_seed);
  OrderingServerOptions server_options = args.server;
  if (!args.fault_spec.empty()) {
    if (!kFaultInjectionEnabled) {
      std::cerr << "warning: --faults ignored (built without "
                   "SPECTRAL_FAULTS)\n";
    } else if (const Status s = faults.ArmFromSpec(args.fault_spec); !s.ok()) {
      std::cerr << "bad --faults spec: " << s << "\n";
      return 2;
    } else {
      server_options.faults = &faults;
    }
  }
  OrderingServer server(server_options);
  const std::string& snapshot = args.server.snapshot_path;
  if (!snapshot.empty()) {
    auto restored = server.LoadSnapshot(snapshot);
    if (restored.ok()) {
      std::cerr << "restored " << *restored << " cache entries from "
                << snapshot << "\n";
    } else {
      std::cerr << "starting cold (snapshot " << snapshot
                << " unusable: " << restored.status() << ")\n";
    }
  }

  if (args.stdio) {
    server.ServeStream(std::cin, std::cout);
  } else {
    auto port = server.StartTcp(args.port);
    if (!port.ok()) {
      std::cerr << "error starting listener: " << port.status() << "\n";
      return 1;
    }
    // Printed on stdout so scripts can scrape the ephemeral port.
    std::cout << "LISTENING " << *port << std::endl;
    std::signal(SIGINT, HandleStop);
    std::signal(SIGTERM, HandleStop);
    std::signal(SIGHUP, HandleRotate);
    sigset_t empty;
    sigemptyset(&empty);
    while (g_stop == 0) {
      sigsuspend(&empty);
      if (g_rotate != 0) {
        g_rotate = 0;
        if (snapshot.empty()) {
          std::cerr << "SIGHUP ignored: no --snapshot path configured\n";
        } else if (auto queued = server.RotateSnapshot(snapshot);
                   queued.ok()) {
          std::cerr << "SIGHUP: rotating snapshot (" << *queued
                    << " entries) to " << snapshot << "\n";
        } else {
          std::cerr << "SIGHUP rotation failed: " << queued.status() << "\n";
        }
      }
    }
    std::cerr << "draining...\n";
  }

  server.Shutdown();
  if (!snapshot.empty()) {
    if (const Status s = server.SaveSnapshot(snapshot); !s.ok()) {
      std::cerr << "error saving snapshot: " << s << "\n";
      return 1;
    }
    std::cerr << "saved cache snapshot to " << snapshot << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace spectral

int main(int argc, char** argv) {
  spectral::ServeArgs args;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stdio") {
      args.stdio = true;
    } else if (spectral::ParseFlag(arg, "port", &value)) {
      args.port = std::atoi(value.c_str());
      if (args.port < 0 || args.port > 65535) return spectral::Usage();
    } else if (spectral::ParseFlag(arg, "window-ms", &value)) {
      args.server.window_ms = std::atof(value.c_str());
      if (args.server.window_ms < 0.0) return spectral::Usage();
    } else if (spectral::ParseFlag(arg, "max-batch", &value)) {
      const long long v = std::atoll(value.c_str());
      if (v < 1) return spectral::Usage();
      args.server.max_batch = static_cast<size_t>(v);
    } else if (spectral::ParseFlag(arg, "queue", &value)) {
      const long long v = std::atoll(value.c_str());
      if (v < 1) return spectral::Usage();
      args.server.max_queue = static_cast<size_t>(v);
    } else if (spectral::ParseFlag(arg, "deadline-ms", &value)) {
      args.server.default_deadline_ms = std::atof(value.c_str());
      if (args.server.default_deadline_ms < 0.0) return spectral::Usage();
    } else if (spectral::ParseFlag(arg, "cache", &value)) {
      const long long v = std::atoll(value.c_str());
      if (v < 0) return spectral::Usage();
      args.server.service.cache_capacity = static_cast<size_t>(v);
    } else if (spectral::ParseFlag(arg, "parallelism", &value)) {
      args.server.service.parallelism = std::atoi(value.c_str());
      if (args.server.service.parallelism < 0) return spectral::Usage();
    } else if (spectral::ParseFlag(arg, "snapshot", &value)) {
      args.server.snapshot_path = value;
    } else if (spectral::ParseFlag(arg, "faults", &value)) {
      args.fault_spec = value;
    } else if (spectral::ParseFlag(arg, "fault-seed", &value)) {
      args.fault_seed =
          static_cast<uint64_t>(std::strtoull(value.c_str(), nullptr, 0));
    } else {
      return spectral::Usage();
    }
  }
  if (args.stdio == (args.port >= 0)) return spectral::Usage();
  return spectral::RunServer(args);
}
