// The end-to-end runs (tracing off): an in-process SwmonDaemon per
// repetition, properties attached as SPL over HTTP, the pre-encoded stream
// fed over one loopback TCP connection, every violation checked against
// the oracle.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "daemon/daemon.hpp"
#include "oracle.hpp"
#include "streams.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Resident set size of this process, bytes (0 where /proc is absent).
std::uint64_t RssBytes();

/// Sends all of [data, data+n) on a blocking socket.
bool SendAll(int fd, const std::uint8_t* data, std::size_t n);

/// Connects to 127.0.0.1:port; -1 on failure.
int ConnectLoopback(std::uint16_t port);

/// The tenant every workload attaches to.
inline constexpr const char* kTenant = "bench";

/// One closed-loop pass: a fresh daemon, the whole stream written as fast
/// as TCP accepts it, then `control_cycles` rounds of the five control ops
/// against the loaded daemon.
struct ClosedOutcome {
  double setup_s = 0;
  /// First byte sent to all events ingested plus one Telemetry() call.
  double seconds = 0;
  double rss_mb = 0;
  std::uint64_t ingested = 0;
  std::size_t attach_failures = 0;
  std::size_t control_errors = 0;
  /// Telemetry before the first byte (only with control_cycles > 0) and
  /// after the last event.
  swmon::telemetry::Snapshot before, after;
  std::vector<ViolationKey> keys;
  std::vector<double> control_ms[5];
};

bool RunClosed(const Workload& w, const EncodedStream& s,
               const std::vector<std::string>& spl, int control_cycles,
               ClosedOutcome* out, std::string* error);

struct EndToEndResult {
  std::vector<double> throughput_eps;  // one per closed-loop rep
  std::vector<double> setup_s;         // one per daemon started
  std::vector<double> rss_mb;          // peak growth, one per rep
  /// Latency samples, one vector per open-loop rep.
  std::vector<std::vector<double>> detect_us;
  std::vector<std::vector<double>> control_ms;
  std::vector<double> late_us;      // generator lateness, pooled
  std::vector<double> backlog_end;  // one per open-loop rep
  int closed_reps = 0;
  int open_reps = 0;
  int unmet_open_reps = 0;

  // Failure accounting (error_rate = failed / attempted).
  std::uint64_t attempted = 0;
  std::uint64_t not_ingested = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t missing = 0;
  std::uint64_t extra = 0;
  std::uint64_t ring_dropped = 0;
  std::uint64_t control_errors = 0;
  bool oracle_ok = true;
  std::string error;

  std::uint64_t failed() const {
    return not_ingested + decode_errors + missing + extra + ring_dropped +
           control_errors;
  }
};

/// Closed-loop repetitions for ~60% of `seconds`, then open-loop ones at
/// the workload's rate with control ops alongside, then the oracle over
/// every rep.
EndToEndResult RunEndToEnd(const Workload& w, const EncodedStream& stream,
                           double seconds);

}  // namespace perfbench
