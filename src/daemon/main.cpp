// swmond entry point. Flag parsing and signal handling only — all daemon
// behaviour lives in SwmonDaemon so tests can embed it.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "daemon/daemon.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "\n"
               "  --config-dir DIR    tenant config root (DIR/<tenant>/*.spl)\n"
               "  --trace FILE        follow a growing .swmt trace file\n"
               "  --tcp-port PORT     listen for events on 127.0.0.1:PORT\n"
               "                      (0 = kernel-assigned, printed at start)\n"
               "  --unix PATH         listen for events on a Unix socket\n"
               "  --http-port PORT    control/telemetry HTTP port (default 0 =\n"
               "                      kernel-assigned, printed at start)\n"
               "  --workers N         per-tenant monitor workers (0/1 = serial)\n"
               "  --batch N           serial tenants buffer N events and run\n"
               "                      them as one batch (default 0 =\n"
               "                      per-event)\n"
               "  --shard-mode M      worker sharding: property (default),\n"
               "                      instance, or auto (instance-shard while\n"
               "                      a tenant has fewer properties than\n"
               "                      workers)\n"
               "  --violation-cap N   per-tenant violation ring capacity\n"
               "                      (default 4096)\n"
               "  --eviction SPEC     bounded-memory eviction for every\n"
               "                      tenant: policy[:max_instances[:bytes]]\n"
               "                      with policy one of creation-order, lru,\n"
               "                      random, timeout-priority (default:\n"
               "                      unbounded). A DIR/<tenant>/eviction\n"
               "                      file overrides this per tenant.\n"
               "\n"
               "At least one event source (--trace, --tcp-port, --unix) is\n"
               "required. See docs/SWMOND.md.\n",
               argv0);
}

bool ParseSize(const char* s, std::size_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  swmon::SwmondOptions options;
  bool tcp_requested = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "swmond: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    std::size_t n = 0;
    if (arg == "--config-dir") {
      options.config_dir = next();
    } else if (arg == "--trace") {
      options.trace_path = next();
    } else if (arg == "--tcp-port") {
      if (!ParseSize(next(), &n) || n > 65535) {
        std::fprintf(stderr, "swmond: bad --tcp-port\n");
        return 2;
      }
      tcp_requested = true;
      options.tcp_enabled = true;
      options.tcp_port = static_cast<std::uint16_t>(n);
    } else if (arg == "--unix") {
      options.unix_socket_path = next();
    } else if (arg == "--http-port") {
      if (!ParseSize(next(), &n) || n > 65535) {
        std::fprintf(stderr, "swmond: bad --http-port\n");
        return 2;
      }
      options.http_port = static_cast<std::uint16_t>(n);
    } else if (arg == "--workers") {
      if (!ParseSize(next(), &options.workers)) {
        std::fprintf(stderr, "swmond: bad --workers\n");
        return 2;
      }
    } else if (arg == "--batch") {
      if (!ParseSize(next(), &options.batch)) {
        std::fprintf(stderr, "swmond: bad --batch\n");
        return 2;
      }
    } else if (arg == "--shard-mode") {
      const std::string mode = next();
      if (mode == "property") {
        options.shard_mode = swmon::ShardMode::kProperty;
      } else if (mode == "instance") {
        options.shard_mode = swmon::ShardMode::kInstance;
      } else if (mode == "auto") {
        options.shard_mode = swmon::ShardMode::kAuto;
      } else {
        std::fprintf(stderr,
                     "swmond: bad --shard-mode '%s' (property|instance|auto)\n",
                     mode.c_str());
        return 2;
      }
    } else if (arg == "--violation-cap") {
      if (!ParseSize(next(), &options.violation_capacity)) {
        std::fprintf(stderr, "swmond: bad --violation-cap\n");
        return 2;
      }
    } else if (arg == "--eviction") {
      std::string eviction_error;
      if (!swmon::ParseEvictionSpec(next(), &options.monitor.eviction,
                                    &eviction_error)) {
        std::fprintf(stderr, "swmond: bad --eviction: %s\n",
                     eviction_error.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "swmond: unknown flag '%s'\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  if (options.trace_path.empty() && !tcp_requested &&
      options.unix_socket_path.empty()) {
    std::fprintf(stderr, "swmond: no event source configured\n\n");
    Usage(argv[0]);
    return 2;
  }

  swmon::SwmonDaemon daemon(std::move(options));
  std::string error;
  if (!daemon.Start(&error)) {
    std::fprintf(stderr, "swmond: start failed: %s\n", error.c_str());
    return 1;
  }

  std::printf("swmond: pid %d\n", static_cast<int>(getpid()));
  if (daemon.http_port())
    std::printf("swmond: http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(daemon.http_port()));
  if (daemon.tcp_port())
    std::printf("swmond: event socket 127.0.0.1:%u\n",
                static_cast<unsigned>(daemon.tcp_port()));
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop) {
    // Signals interrupt the sleep; poll cheaply regardless.
    usleep(200 * 1000);
  }

  std::printf("swmond: shutting down (%llu events ingested)\n",
              static_cast<unsigned long long>(daemon.events_ingested()));
  daemon.Stop();
  return 0;
}
