// Order statistics the benchmark reports: nearest-rank percentiles, the
// median, and the tail rule — report p99 only when the sample supports it
// (at least 10 samples beyond it), else the highest percentile that does.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile, p in (0, 100]: the smallest sample with at
/// least p% of the samples at or below it. 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

struct TailReport {
  /// The percentile reported (99 when the sample supports it).
  double pct = 0;
  double value = 0;
  std::size_t samples = 0;
};

/// The highest of p99, p95, p90, p75 and p50 with at least `min_beyond`
/// samples strictly above its rank; p50 when none qualifies.
TailReport Tail(const std::vector<double>& samples,
                std::size_t min_beyond = 10);

}  // namespace perfbench
