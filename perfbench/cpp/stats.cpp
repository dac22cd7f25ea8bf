#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

/// 0-based nearest-rank index of percentile p among n samples.
std::size_t RankIndex(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const std::size_t idx = RankIndex(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

TailReport Tail(const std::vector<double>& samples, std::size_t min_beyond) {
  TailReport r;
  r.samples = samples.size();
  r.pct = 50;
  for (const double p : {99.0, 95.0, 90.0, 75.0}) {
    if (samples.empty()) break;
    const std::size_t beyond = samples.size() - 1 - RankIndex(samples.size(), p);
    if (beyond >= min_beyond) {
      r.pct = p;
      break;
    }
  }
  r.value = Percentile(samples, r.pct);
  return r;
}

}  // namespace perfbench
