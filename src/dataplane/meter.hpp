// Token-bucket meter — OpenFlow's built-in quantitative primitive ("basic
// quantitative state, such as counters and meters", paper Sec 3.1).
//
// A meter admits traffic up to `rate` (units per second, packets or bytes
// as the caller decides) with bursts up to `burst`. Deterministic: tokens
// accrue with simulated time.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/sim_time.hpp"
#include "telemetry/snapshot.hpp"

namespace swmon {

class Meter {
 public:
  /// `rate` tokens per second, bucket capacity `burst` tokens.
  Meter(std::uint64_t rate, std::uint64_t burst)
      : rate_(rate), burst_(burst), tokens_(burst) {}

  /// Consumes `cost` tokens at time `now`. Returns true when admitted,
  /// false when the packet exceeds the band (would be dropped/marked).
  bool Admit(SimTime now, std::uint64_t cost = 1) {
    Refill(now);
    if (tokens_ < cost) {
      ++exceeded_;
      return false;
    }
    tokens_ -= cost;
    ++admitted_;
    return true;
  }

  /// Publishes `dataplane.meter.<name>.{admitted,exceeded}` counters and
  /// the `tokens` gauge into `snap`.
  void CollectInto(telemetry::Snapshot& snap, std::string_view name) const {
    std::string prefix = "dataplane.meter.";
    prefix.append(name);
    prefix += '.';
    snap.SetCounter(prefix + "admitted", admitted_);
    snap.SetCounter(prefix + "exceeded", exceeded_);
    snap.SetGauge(prefix + "tokens", static_cast<std::int64_t>(tokens_));
  }

 private:
  void Refill(SimTime now) {
    if (now <= last_) return;
    const Duration elapsed = now - last_;
    last_ = now;
    // tokens += rate * elapsed, accumulated at nanosecond resolution.
    accum_ns_ += static_cast<std::uint64_t>(elapsed.nanos()) * rate_;
    const std::uint64_t whole = accum_ns_ / 1000000000ULL;
    accum_ns_ %= 1000000000ULL;
    tokens_ = tokens_ + whole > burst_ ? burst_ : tokens_ + whole;
  }

  std::uint64_t rate_;
  std::uint64_t burst_;
  std::uint64_t tokens_;
  std::uint64_t accum_ns_ = 0;
  SimTime last_ = SimTime::Zero();
  std::uint64_t admitted_ = 0;
  std::uint64_t exceeded_ = 0;
};

}  // namespace swmon
