// The correctness oracle: every stream the daemon ingests is replayed
// through a serial interpreted MonitorSet — the repo's differential
// reference — and the daemon's violations must equal its output as a
// multiset of (property, trigger stage, time, bindings). Instance ids are
// left out of the key: they are a per-engine numbering, not an observable
// of the monitored traffic.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "monitor/violation.hpp"
#include "streams.hpp"

namespace perfbench {

struct ViolationKey {
  std::string property;
  std::string stage;
  std::int64_t time_ns = 0;
  std::vector<std::pair<std::string, std::uint64_t>> bindings;

  auto operator<=>(const ViolationKey&) const = default;
  bool operator==(const ViolationKey&) const = default;
};

ViolationKey KeyOf(const swmon::Violation& v);

struct MultisetDiff {
  std::size_t missing = 0;  // expected but not reported
  std::size_t extra = 0;    // reported but not expected
  std::size_t failures() const { return missing + extra; }
};

MultisetDiff CompareMultisets(std::vector<ViolationKey> expected,
                              std::vector<ViolationKey> actual);

/// Replays `stream` through a serial interpreter MonitorSet holding
/// `properties`. Returns false when the stream does not decode.
bool RunOracle(const std::vector<swmon::Property>& properties,
               const EncodedStream& stream, std::vector<ViolationKey>* out);

/// Parses the GET /violations payload (swmon::ViolationsToJson) into keys.
/// False on a payload that does not have that shape.
bool ParseViolationsJson(const std::string& json,
                         std::vector<ViolationKey>* out);

/// The triggering event of a violation reported at sim time `t_ns`: the
/// first stream event whose time is >= t_ns. For a match violation that is
/// the matching event itself; for a timeout it is the event that advanced
/// time past the deadline. times_ns.size() when no event qualifies.
std::size_t TriggerIndex(const std::vector<std::int64_t>& times_ns,
                         std::int64_t t_ns);

}  // namespace perfbench
