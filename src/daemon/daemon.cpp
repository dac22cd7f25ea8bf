#include "daemon/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>

namespace swmon {
namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Splits "/a/b/c" into {"a","b","c"}.
std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos < path.size()) {
    if (path[pos] == '/') {
      ++pos;
      continue;
    }
    std::size_t end = path.find('/', pos);
    if (end == std::string::npos) end = path.size();
    parts.push_back(path.substr(pos, end - pos));
    pos = end;
  }
  return parts;
}

}  // namespace

std::string ViolationsToJson(const std::vector<Violation>& violations) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i) out << ",";
    out << "\n  {\"property\":\"" << JsonEscape(v.property)
        << "\",\"time_ns\":" << v.time.nanos()
        << ",\"instance_id\":" << v.instance_id << ",\"trigger_stage\":\""
        << JsonEscape(v.trigger_stage) << "\",\"bindings\":{";
    for (std::size_t b = 0; b < v.bindings.size(); ++b) {
      if (b) out << ",";
      out << "\"" << JsonEscape(v.bindings[b].first)
          << "\":" << v.bindings[b].second;
    }
    out << "}}";
  }
  out << (violations.empty() ? "]\n" : "\n]\n");
  return out.str();
}

SwmonDaemon::SwmonDaemon(SwmondOptions options)
    : options_(std::move(options)) {
  if (options_.max_round_events == 0) options_.max_round_events = 1;
}

SwmonDaemon::~SwmonDaemon() { Stop(); }

Tenant& SwmonDaemon::GetOrCreateTenant(const std::string& name,
                                       const EvictionConfig* eviction_override) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    TenantOptions topts;
    topts.workers = options_.workers;
    topts.shard_mode = options_.shard_mode;
    topts.batch = options_.batch;
    topts.monitor = options_.monitor;
    if (eviction_override) topts.monitor.eviction = *eviction_override;
    topts.violation_capacity = options_.violation_capacity;
    it = tenants_.emplace(name, std::make_unique<Tenant>(name, topts)).first;
    tenant_order_.push_back(it->second.get());
  }
  return *it->second;
}

bool SwmonDaemon::LoadConfigDir(std::string* error) {
  namespace fs = std::filesystem;
  if (options_.config_dir.empty()) return true;
  std::error_code ec;
  if (!fs::is_directory(options_.config_dir, ec)) {
    if (error) *error = "config dir " + options_.config_dir +
                        " is not a directory";
    return false;
  }
  std::vector<fs::path> tenant_dirs;
  for (const auto& entry : fs::directory_iterator(options_.config_dir, ec))
    if (entry.is_directory()) tenant_dirs.push_back(entry.path());
  std::sort(tenant_dirs.begin(), tenant_dirs.end());
  for (const fs::path& dir : tenant_dirs) {
    // Optional per-tenant eviction override: a one-line
    // "policy[:max_instances[:max_state_bytes]]" spec in DIR/<tenant>/eviction.
    EvictionConfig tenant_eviction;
    bool has_eviction = false;
    const fs::path eviction_file = dir / "eviction";
    if (fs::is_regular_file(eviction_file, ec)) {
      std::ifstream in(eviction_file);
      std::string spec;
      std::getline(in, spec);
      while (!spec.empty() && (spec.back() == '\r' || spec.back() == ' ' ||
                               spec.back() == '\t'))
        spec.pop_back();
      std::string parse_error;
      if (!ParseEvictionSpec(spec, &tenant_eviction, &parse_error)) {
        if (error) *error = eviction_file.string() + ": " + parse_error;
        return false;
      }
      has_eviction = true;
    }
    Tenant& tenant = GetOrCreateTenant(
        dir.filename().string(), has_eviction ? &tenant_eviction : nullptr);
    std::vector<fs::path> spl_files;
    for (const auto& entry : fs::directory_iterator(dir, ec))
      if (entry.path().extension() == ".spl")
        spl_files.push_back(entry.path());
    std::sort(spl_files.begin(), spl_files.end());
    for (const fs::path& file : spl_files) {
      std::ifstream in(file);
      std::ostringstream text;
      text << in.rdbuf();
      std::string parse_error;
      if (!tenant.AttachSpl(text.str(), &parse_error)) {
        if (error)
          *error = file.string() + ": " + parse_error;
        return false;
      }
    }
  }
  return true;
}

bool SwmonDaemon::Start(std::string* error) {
  if (running_.load(std::memory_order_acquire)) return true;
  if (!LoadConfigDir(error)) return false;

  if (!options_.trace_path.empty())
    sources_.push_back(std::make_unique<TraceTailer>(options_.trace_path));
  if (options_.tcp_enabled || !options_.unix_socket_path.empty()) {
    SocketSourceOptions sopts;
    sopts.tcp_enabled = options_.tcp_enabled;
    sopts.tcp_port = options_.tcp_port;
    sopts.unix_path = options_.unix_socket_path;
    auto socket = std::make_unique<SocketSource>(sopts);
    if (!socket->Start(error)) return false;
    socket_source_ = socket.get();
    sources_.push_back(std::move(socket));
  }

  running_.store(true, std::memory_order_release);
  pump_ = std::thread([this] { PumpLoop(); });

  if (options_.http_enabled) {
    http_ = std::make_unique<HttpServer>();
    if (!http_->Start(options_.http_port,
                      [this](const HttpRequest& req) {
                        return HandleHttp(req);
                      },
                      error)) {
      Stop();
      return false;
    }
  }
  return true;
}

void SwmonDaemon::Stop() {
  if (http_) {
    http_->Stop();
    http_.reset();
  }
  if (socket_source_) socket_source_->Stop();
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    command_cv_.notify_all();
    if (pump_.joinable()) pump_.join();
  }
  // Commands enqueued during shutdown still complete (inline, quiesced).
  RunPendingCommands();
  socket_source_ = nullptr;
  sources_.clear();
}

void SwmonDaemon::PumpLoop() {
  std::vector<DataplaneEvent> round;
  std::vector<bool> source_alive(sources_.size(), true);
  while (running_.load(std::memory_order_acquire)) {
    round.clear();
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      if (!source_alive[i]) continue;
      if (!sources_[i]->Poll(round)) source_alive[i] = false;
      if (round.size() >= options_.max_round_events) break;
    }

    if (!round.empty()) {
      for (DataplaneEvent& ev : round) {
        // Engines require monotone time; interleaved sources (or a replayed
        // old trace) may violate it. Clamp and count rather than crash.
        if (ev.time < last_event_time_) {
          ev.time = last_event_time_;
          ++events_clamped_;
        } else {
          last_event_time_ = ev.time;
        }
        for (Tenant* t : tenant_order_) t->Deliver(ev);
      }
      events_ingested_.fetch_add(round.size(), std::memory_order_relaxed);
    }
    ++pump_rounds_;

    // The quiet point: engines drained every round (bounded resident
    // memory), control commands executed against flushed state.
    for (Tenant* t : tenant_order_) t->DrainEngines();
    RunPendingCommands();

    if (round.empty()) {
      std::unique_lock<std::mutex> lock(command_mu_);
      if (commands_.empty() && running_.load(std::memory_order_acquire)) {
        command_cv_.wait_for(lock,
                             std::chrono::microseconds(options_.idle_sleep_us));
      }
    }
  }
}

std::size_t SwmonDaemon::RunPendingCommands() {
  std::deque<std::function<void()>> pending;
  {
    std::lock_guard<std::mutex> lock(command_mu_);
    pending.swap(commands_);
  }
  if (pending.empty()) return 0;
  // Commands observe quiesced monitor state.
  for (Tenant* t : tenant_order_) t->Flush();
  for (auto& fn : pending) fn();
  commands_run_ += pending.size();
  return pending.size();
}

void SwmonDaemon::RunOnPump(std::function<void()> fn) {
  if (!running_.load(std::memory_order_acquire)) {
    // Pump not live (pre-Start or post-Stop): the caller's thread is the
    // only one touching monitor state.
    for (Tenant* t : tenant_order_) t->Flush();
    fn();
    return;
  }
  std::promise<void> done;
  std::future<void> fut = done.get_future();
  {
    std::lock_guard<std::mutex> lock(command_mu_);
    commands_.push_back([&fn, &done] {
      fn();
      done.set_value();
    });
  }
  command_cv_.notify_all();
  fut.wait();
}

telemetry::Snapshot SwmonDaemon::BuildSnapshot() {
  telemetry::Snapshot snap;
  snap.SetCounter("daemon.events_ingested",
                  events_ingested_.load(std::memory_order_relaxed));
  snap.SetCounter("daemon.events_clamped", events_clamped_);
  snap.SetCounter("daemon.pump_rounds", pump_rounds_);
  snap.SetCounter("daemon.commands_run", commands_run_);
  snap.SetGauge("daemon.tenants", static_cast<std::int64_t>(tenants_.size()));
  if (http_) snap.SetCounter("daemon.http.requests", http_->requests_served());
  for (const auto& src : sources_) {
    const std::string prefix = "daemon.source." + src->name() + ".";
    snap.SetCounter(prefix + "events", src->events_ingested());
  }
  if (socket_source_) {
    snap.SetCounter("daemon.socket.connections",
                    socket_source_->connections_accepted());
    snap.SetCounter("daemon.socket.protocol_errors",
                    socket_source_->protocol_errors());
    snap.SetCounter("daemon.socket.decode_errors",
                    socket_source_->decode_errors());
    snap.SetCounter("daemon.socket.handoffs", socket_source_->handoffs());
    snap.SetGauge("daemon.socket.queue_high_water",
                  static_cast<std::int64_t>(
                      socket_source_->queue_high_water()));
  }
  for (Tenant* t : tenant_order_) t->CollectInto(snap);
  return snap;
}

telemetry::Snapshot SwmonDaemon::Telemetry() {
  telemetry::Snapshot snap;
  RunOnPump([&] { snap = BuildSnapshot(); });
  return snap;
}

std::vector<std::string> SwmonDaemon::TenantNames() {
  std::vector<std::string> names;
  RunOnPump([&] {
    for (const auto& [name, tenant] : tenants_) names.push_back(name);
  });
  return names;
}

std::optional<PropertyId> SwmonDaemon::AttachProperty(
    const std::string& tenant, const std::string& spl_text,
    std::string* error) {
  std::optional<PropertyId> id;
  RunOnPump([&] {
    id = GetOrCreateTenant(tenant).AttachSpl(spl_text, error);
  });
  return id;
}

bool SwmonDaemon::DetachProperty(const std::string& tenant, PropertyId id,
                                 std::string* error) {
  bool ok = false;
  RunOnPump([&] {
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      if (error) *error = "unknown tenant '" + tenant + "'";
      return;
    }
    ok = it->second->Detach(id);
    if (!ok && error)
      *error = "no attached property with id " + std::to_string(id);
  });
  return ok;
}

std::optional<std::vector<Violation>> SwmonDaemon::DrainViolations(
    const std::string& tenant) {
  std::optional<std::vector<Violation>> out;
  RunOnPump([&] {
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) return;
    // Engines were just drained by the pump round; this drains the ring.
    out = it->second->DrainRing();
  });
  return out;
}

std::vector<TenantProperty> SwmonDaemon::TenantProperties(
    const std::string& tenant) {
  std::vector<TenantProperty> out;
  RunOnPump([&] {
    auto it = tenants_.find(tenant);
    if (it != tenants_.end()) out = it->second->Properties();
  });
  return out;
}

HttpResponse SwmonDaemon::HandleHttp(const HttpRequest& req) {
  const std::vector<std::string> parts = SplitPath(req.path);

  if (req.method == "GET" && req.path == "/healthz")
    return {200, "text/plain; charset=utf-8", "ok\n"};

  if (req.method == "GET" && req.path == "/metrics")
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            Telemetry().ToPrometheusText()};

  if (req.method == "GET" && req.path == "/telemetry.json")
    return HttpResponse::Json(Telemetry().ToJson());

  if (req.method == "GET" && req.path == "/violations") {
    const std::string tenant = req.QueryParam("tenant");
    if (tenant.empty())
      return HttpResponse::Error(400, "missing ?tenant= parameter");
    auto drained = DrainViolations(tenant);
    if (!drained)
      return HttpResponse::Error(404, "unknown tenant '" + tenant + "'");
    return HttpResponse::Json(ViolationsToJson(*drained));
  }

  if (req.method == "GET" && req.path == "/tenants") {
    std::ostringstream out;
    out << "[";
    bool first_tenant = true;
    for (const std::string& name : TenantNames()) {
      if (!first_tenant) out << ",";
      first_tenant = false;
      out << "\n  {\"name\":\"" << JsonEscape(name) << "\",\"properties\":[";
      bool first_prop = true;
      for (const TenantProperty& p : TenantProperties(name)) {
        if (!first_prop) out << ",";
        first_prop = false;
        out << "{\"id\":" << p.id << ",\"name\":\"" << JsonEscape(p.name)
            << "\"}";
      }
      out << "]}";
    }
    out << (first_tenant ? "]\n" : "\n]\n");
    return HttpResponse::Json(out.str());
  }

  // POST /tenants/{name}/properties  (body = one SPL property)
  if (req.method == "POST" && parts.size() == 3 && parts[0] == "tenants" &&
      parts[2] == "properties") {
    std::string error;
    const auto id = AttachProperty(parts[1], req.body, &error);
    if (!id) return HttpResponse::Error(400, JsonEscape(error));
    std::ostringstream out;
    out << "{\"tenant\":\"" << JsonEscape(parts[1]) << "\",\"id\":" << *id
        << "}\n";
    return {201, "application/json", out.str()};
  }

  // DELETE /tenants/{name}/properties/{id}
  if (req.method == "DELETE" && parts.size() == 4 && parts[0] == "tenants" &&
      parts[2] == "properties") {
    char* end = nullptr;
    const unsigned long long id = std::strtoull(parts[3].c_str(), &end, 10);
    if (end == parts[3].c_str() || *end != '\0')
      return HttpResponse::Error(400, "bad property id '" + parts[3] + "'");
    std::string error;
    if (!DetachProperty(parts[1], static_cast<PropertyId>(id), &error))
      return HttpResponse::Error(404, JsonEscape(error));
    std::ostringstream out;
    out << "{\"detached\":" << id << "}\n";
    return HttpResponse::Json(out.str());
  }

  return HttpResponse::Error(404, "no route for " + req.method + " " +
                                      JsonEscape(req.path));
}

}  // namespace swmon
