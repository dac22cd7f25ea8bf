// Interest-signature dispatch lists, shared by the serial MonitorSet and
// each ParallelMonitorSet worker shard.
//
// For every DataplaneEventType the table keeps two lists in engine-attach
// order: engines whose property can react to the type (interested — they
// get the full ProcessDispatchedEvent) and the rest (filtered — they only
// observe the timestamp so their timeout windows keep expiring). Entries
// carry the engine's attach index so the parallel path can tag violations
// with a stable merge key; the serial path ignores it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "monitor/property_monitor.hpp"

namespace swmon {

class DispatchTable {
 public:
  struct Entry {
    PropertyMonitor* engine;
    std::uint32_t attach_index;  // position in the owning set's Add() order
  };
  struct Lists {
    std::vector<Entry> interested;
    std::vector<Entry> filtered;
  };

  /// Slots the engine into interested/filtered per event type from its
  /// interest signature. Call in attach order — list order is dispatch
  /// order, and dispatch order is part of the determinism contract.
  void Register(PropertyMonitor* engine, std::uint32_t attach_index) {
    const EventTypeMask sig = engine->interest_signature();
    for (std::size_t t = 0; t < kNumDataplaneEventTypes; ++t) {
      auto& list = lists_[t];
      (sig >> t & 1 ? list.interested : list.filtered)
          .push_back(Entry{engine, attach_index});
    }
  }

  /// Removes every entry for `engine`, preserving the relative order of the
  /// remaining entries (detach must not perturb dispatch order for resident
  /// engines — that order is part of the determinism contract).
  void Unregister(const PropertyMonitor* engine) {
    for (auto& lists : lists_) {
      for (auto* list : {&lists.interested, &lists.filtered}) {
        list->erase(std::remove_if(list->begin(), list->end(),
                                   [engine](const Entry& e) {
                                     return e.engine == engine;
                                   }),
                    list->end());
      }
    }
  }

  const Lists& lists(DataplaneEventType type) const {
    return lists_[static_cast<std::size_t>(type)];
  }

  /// Delivers one event to this table's engines (interested: full
  /// processing; filtered: clock only) and bumps the caller's counters by
  /// the per-delivery amounts — the counter contract is identical for the
  /// serial per-event path and the batched path, which is what makes
  /// MonitorStats aggregation agree between them.
  void Deliver(const DataplaneEvent& event, std::uint64_t& dispatched,
               std::uint64_t& filtered) const {
    const Lists& list = lists(event.type);
    // Sizes are read before any engine runs: the engine calls are opaque,
    // so reading them afterwards would reload both vectors.
    const std::size_t n_filtered = list.filtered.size();
    dispatched += list.interested.size();
    for (const Entry& e : list.interested)
      e.engine->ProcessDispatchedEvent(event);
    // All-interested fast path: when nothing is filtered for this type
    // (the common case — one attached property subscribed to every event
    // type), skip the filtered walk and its counter write entirely so the
    // pre-filtered path costs no more than direct delivery (bench_dispatch
    // guards the parity).
    if (n_filtered == 0) return;
    for (const Entry& e : list.filtered) e.engine->NoteFilteredEvent(event.time);
    filtered += n_filtered;
  }

 private:
  std::array<Lists, kNumDataplaneEventTypes> lists_;
};

}  // namespace swmon
