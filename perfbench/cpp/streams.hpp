// Workload definitions for the swmond benchmark: which properties a tenant
// runs, how it executes them, and the seeded event stream it is fed.
//
// Every stream is generated from the seed and encoded once, up front, into
// the v2 wire format (docs/TRACE_FORMAT.md) — the daemon only ever sees
// these bytes. The encoded buffer plus per-event offsets and sim times is
// all the benchmark keeps: no materialised DataplaneEvent vector, so a
// 600k-event stream costs ~30 MB, not ~200 MB.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dataplane/switch.hpp"
#include "monitor/parallel_monitor_set.hpp"
#include "monitor/spec.hpp"

namespace perfbench {

struct EncodedStream {
  /// 16-byte SWMT v2 header followed by every event's wire encoding.
  std::vector<std::uint8_t> bytes;
  /// ends[i] = offset one past event i in `bytes`.
  std::vector<std::size_t> ends;
  /// Sim time of event i, strictly increasing.
  std::vector<std::int64_t> times_ns;

  std::size_t size() const { return times_ns.size(); }
  /// Offset of event i's first byte.
  std::size_t begin(std::size_t i) const {
    return i == 0 ? kHeaderBytes : ends[i - 1];
  }
  static constexpr std::size_t kHeaderBytes = 16;
};

struct Workload {
  std::string name;
  /// Properties attached to the tenant over the control API.
  std::vector<swmon::Property> properties;
  /// Tenant execution: 0 = serial MonitorSet, else ParallelMonitorSet.
  std::size_t workers = 0;
  swmon::ShardMode shard_mode = swmon::ShardMode::kProperty;
  /// Frozen sizing: stream length and the open-loop offered rate.
  std::size_t events = 0;
  double rate_eps = 0;
  /// Emits `n` events generated from `seed`, in time order.
  std::function<void(std::uint64_t seed, std::size_t n,
                     const std::function<void(const swmon::DataplaneEvent&)>&)>
      generate;
};

/// The three workloads, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();
/// nullptr when unknown.
const Workload* FindWorkload(const std::string& name);

/// The properties the per-layer engine metrics cover: the 13 Table-1 rows
/// followed by fw-return-not-dropped.
std::vector<swmon::Property> LayerProperties();

/// Generates and encodes `n` events of `w` from `seed`.
EncodedStream Encode(const Workload& w, std::uint64_t seed, std::size_t n);

/// Decodes `s` (validating every record) and calls `fn` on each event.
/// Returns false if the bytes do not decode to exactly s.size() events.
bool ForEachEvent(const EncodedStream& s,
                  const std::function<void(const swmon::DataplaneEvent&)>& fn);

}  // namespace perfbench
