// swmond — the long-running multi-tenant monitoring daemon.
//
// The paper's premise is that property monitors run *continuously
// alongside* switch traffic; this is the process that makes the repo's
// engines deployable that way instead of batch-replayed. One daemon hosts:
//
//   ingestion   one pump thread draining pluggable EventSources (trace
//               tailer, TCP/Unix socket) and delivering each event to
//               every tenant's monitor set, with timestamps clamped
//               monotone (engines require non-decreasing time; interleaved
//               sources do not guarantee it);
//   tenants     named property groups with hot attach/detach (see
//               tenant.hpp) — lifecycle ops quiesce at the flush
//               quiet-point, never restart the daemon;
//   control     an embedded HTTP plane: GET /metrics (Prometheus),
//               GET /telemetry.json, GET /violations?tenant=..,
//               GET /tenants, POST /tenants/{t}/properties (SPL body),
//               DELETE /tenants/{t}/properties/{id}, GET /healthz.
//
// Threading: monitor state is owned by the pump thread, full stop. HTTP
// handlers (and embedding tests) marshal every control operation onto the
// pump via RunOnPump, which executes queued commands between delivery
// rounds — after flushing tenants, so commands always observe (and mutate)
// quiesced state. Violations drain from engines into per-tenant bounded
// rings every round: the daemon's resident memory does not grow with
// uptime (daemon_soak_test pins this with an RSS assertion).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "daemon/event_source.hpp"
#include "daemon/http_server.hpp"
#include "daemon/tenant.hpp"

namespace swmon {

struct SwmondOptions {
  /// Tenant config root: each subdirectory is a tenant, each `*.spl` file
  /// inside it one property. Empty = start with no tenants (they can be
  /// created over the control API).
  std::string config_dir;

  /// Trace-tailer source: follow this growing v2 .swmt file. Empty = off.
  std::string trace_path;

  /// Socket source (either or both may be enabled).
  bool tcp_enabled = false;
  std::uint16_t tcp_port = 0;  // 0 = kernel-assigned
  std::string unix_socket_path;

  /// Control plane. http_port 0 = kernel-assigned (read back after Start).
  bool http_enabled = true;
  std::uint16_t http_port = 0;

  /// Per-tenant monitor execution (see TenantOptions).
  std::size_t workers = 0;
  ShardMode shard_mode = ShardMode::kProperty;
  /// Serial tenants' micro-batch window; 0 = per-event delivery. The
  /// pump's per-round Flush bounds how long a partial window can sit
  /// buffered.
  std::size_t batch = 0;
  MonitorConfig monitor;
  std::size_t violation_capacity = 4096;

  /// Max events delivered per pump round (bounds latency of control ops).
  std::size_t max_round_events = 8192;
  /// Pump sleep when idle, microseconds.
  long idle_sleep_us = 500;
};

class SwmonDaemon {
 public:
  explicit SwmonDaemon(SwmondOptions options);
  ~SwmonDaemon();
  SwmonDaemon(const SwmonDaemon&) = delete;
  SwmonDaemon& operator=(const SwmonDaemon&) = delete;

  /// Loads tenants from config_dir, starts sources, pump, and HTTP. False
  /// (with a message) on config parse errors, bind failures, bad paths.
  bool Start(std::string* error = nullptr);
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  std::uint16_t http_port() const {
    return http_ ? http_->port() : 0;
  }
  std::uint16_t tcp_port() const {
    return socket_source_ ? socket_source_->tcp_port() : 0;
  }

  std::uint64_t events_ingested() const {
    return events_ingested_.load(std::memory_order_relaxed);
  }

  // --- thread-safe control surface (marshalled onto the pump; these are
  // exactly what the HTTP handlers call, exposed for embedding/tests) ---
  telemetry::Snapshot Telemetry();
  std::vector<std::string> TenantNames();
  /// Creates the tenant if absent; attaches the SPL property. nullopt +
  /// error on parse failure.
  std::optional<PropertyId> AttachProperty(const std::string& tenant,
                                           const std::string& spl_text,
                                           std::string* error);
  bool DetachProperty(const std::string& tenant, PropertyId id,
                      std::string* error);
  /// nullopt when the tenant does not exist.
  std::optional<std::vector<Violation>> DrainViolations(
      const std::string& tenant);
  std::vector<TenantProperty> TenantProperties(const std::string& tenant);

  /// Runs `fn` on the pump thread at the next quiet point (tenants
  /// flushed), blocking until done. Runs inline when the pump is stopped.
  void RunOnPump(std::function<void()> fn);

  /// The HTTP routing function, public so tests can drive it without a
  /// real socket if they wish.
  HttpResponse HandleHttp(const HttpRequest& req);

 private:
  void PumpLoop();
  /// Executes queued control commands; returns how many ran.
  std::size_t RunPendingCommands();
  /// `eviction_override` (optional) replaces options_.monitor.eviction for
  /// a newly created tenant — the per-tenant `eviction` config file.
  Tenant& GetOrCreateTenant(const std::string& name,
                            const EvictionConfig* eviction_override = nullptr);
  bool LoadConfigDir(std::string* error);
  telemetry::Snapshot BuildSnapshot();

  SwmondOptions options_;
  std::vector<std::unique_ptr<EventSource>> sources_;
  SocketSource* socket_source_ = nullptr;  // borrowed from sources_
  std::unique_ptr<HttpServer> http_;
  /// Tenant order = creation order (map for name lookup, vector for
  /// deterministic delivery order).
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::vector<Tenant*> tenant_order_;

  std::thread pump_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> events_ingested_{0};

  std::mutex command_mu_;
  std::condition_variable command_cv_;
  std::deque<std::function<void()>> commands_;

  // Pump-thread-only state.
  SimTime last_event_time_ = SimTime::Zero();
  std::uint64_t events_clamped_ = 0;
  std::uint64_t pump_rounds_ = 0;
  std::uint64_t commands_run_ = 0;
};

/// Renders violations as a JSON array (the GET /violations payload).
std::string ViolationsToJson(const std::vector<Violation>& violations);

}  // namespace swmon
