// The external-monitoring baseline (paper Sec 1, experiment E6).
//
// "Monitoring the necessary packets, rather than only controller messages,
// quickly becomes expensive to do externally": an off-switch monitor must
// receive a copy of every packet that could advance or violate a property.
// ControllerMonitor models that: every dataplane event is mirrored over the
// control channel (bytes counted), and a monitor engine processes it after
// half a controller round trip — so detection also lags.
//
// Contrast with an on-switch monitor, whose control-channel traffic is just
// the violation notifications.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "monitor/property_monitor.hpp"

namespace swmon {

class ControllerMonitor : public DataplaneObserver {
 public:
  ControllerMonitor(Property property, const CostParams& params,
                    MonitorConfig config = {})
      : engine_(CreatePropertyMonitor(std::move(property), config)),
        params_(params) {}

  void OnDataplaneEvent(const DataplaneEvent& event) override {
    ++events_mirrored_;
    bytes_mirrored_ += event.packet_bytes;
    // The copy reaches the monitor one half-RTT later.
    DataplaneEvent delayed = event;
    delayed.time = event.time + params_.controller_rtt / 2;
    engine_->ProcessEvent(delayed);
  }

  void AdvanceTime(SimTime now) {
    engine_->AdvanceTime(now + params_.controller_rtt / 2);
  }

  const std::vector<Violation>& violations() const {
    return engine_->violations();
  }

  /// Publishes `backend.controller.<name>.{events_mirrored,bytes_mirrored}`
  /// counters plus the wrapped engine's `monitor.engine.<name>.*` family
  /// (and `monitor.compiled.<name>.*` when it runs compiled).
  void CollectInto(telemetry::Snapshot& snap, std::string_view name) const {
    std::string prefix = "backend.controller.";
    prefix.append(name);
    prefix += '.';
    snap.SetCounter(prefix + "events_mirrored", events_mirrored_);
    snap.SetCounter(prefix + "bytes_mirrored", bytes_mirrored_);
    engine_->CollectInto(snap, name);
  }
  telemetry::Snapshot TelemetrySnapshot(std::string_view name) const {
    telemetry::Snapshot snap;
    CollectInto(snap, name);
    return snap;
  }

 private:
  std::unique_ptr<PropertyMonitor> engine_;
  CostParams params_;
  std::uint64_t events_mirrored_ = 0;
  std::uint64_t bytes_mirrored_ = 0;
};

}  // namespace swmon
