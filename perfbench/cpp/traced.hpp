// The traced run (--trace 1): per-layer metrics from spans the benchmark
// records around the public entry points of each swmon module.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "streams.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Sample count / provenance, printed on the human-readable line only.
  std::string note;
};

struct TracedSummary {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs the traced re-enactment and the per-layer passes over `stream`;
/// appends every per-layer metric to `out` and, when `spans_path` is
/// non-empty, writes the traced re-enactment's spans there as CSV. False
/// when an output disagrees with the oracle.
bool RunTraced(const Workload& w, const EncodedStream& stream,
               const std::string& spans_path, std::vector<Metric>* out,
               TracedSummary* summary);

}  // namespace perfbench
