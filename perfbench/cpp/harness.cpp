#include "harness.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>

#include "spl/spl.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Longest a repetition may wait for the daemon to ingest its stream.
constexpr double kIngestTimeoutS = 60;
/// The open-loop sender wakes this often and sends every event due by then.
constexpr auto kSendTick = std::chrono::microseconds(100);
/// An open-loop repetition whose generator ran later than this at p99 did
/// not offer the workload's rate.
constexpr double kMaxLateP99Us = 5000;
/// Control-op cadence during the open loop.
constexpr auto kControlInterval = std::chrono::milliseconds(5);

/// The hot-attached control property; it never matches any workload.
constexpr const char* kProbeSpl = R"(property perfbench-probe {
  stage "never" on arrival {
    match l4_dst == 9999;
  }
})";

/// A daemon configured on shipped defaults for `w`, with the workload's
/// properties attached over HTTP and the event connection accepted.
struct LiveDaemon {
  std::unique_ptr<swmon::SwmonDaemon> daemon;
  int event_fd = -1;
  /// Construction + Start() + attaches + connection accepted, seconds.
  double setup_s = 0;
  /// RSS just before Start().
  std::uint64_t rss_base = 0;
  /// Attach requests that did not return 201.
  std::size_t attach_failures = 0;

  LiveDaemon() = default;
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;
  ~LiveDaemon() {
    CloseEvents();
    if (daemon) daemon->Stop();
  }
  /// Closes the event connection (clean end of stream).
  void CloseEvents() {
    if (event_fd >= 0) ::close(event_fd);
    event_fd = -1;
  }
};

bool StartDaemon(const Workload& w, const std::vector<std::string>& spl,
                 LiveDaemon* out, std::string* error) {
  ::malloc_trim(0);  // return freed pages so the RSS baseline is honest
  swmon::SwmondOptions opts;
  opts.tcp_enabled = true;
  opts.workers = w.workers;
  opts.shard_mode = w.shard_mode;
  const auto t0 = Clock::now();
  out->daemon = std::make_unique<swmon::SwmonDaemon>(std::move(opts));
  out->rss_base = RssBytes();
  if (!out->daemon->Start(error)) return false;
  const std::string target =
      std::string("/tenants/") + kTenant + "/properties";
  for (const std::string& text : spl) {
    int status = 0;
    std::string body;
    if (!swmon::HttpRoundTrip(out->daemon->http_port(), "POST", target, text,
                              &status, &body, error))
      return false;
    if (status != 201) ++out->attach_failures;
  }
  out->event_fd = ConnectLoopback(out->daemon->tcp_port());
  if (out->event_fd < 0) {
    if (error) *error = "event connection refused";
    return false;
  }
  while (out->daemon->Telemetry().counter("daemon.socket.connections") < 1) {
    if (SecondsSince(t0) > 10) {
      if (error) *error = "event connection never accepted";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  out->setup_s = SecondsSince(t0);
  return true;
}

/// One control op against a live daemon, by `op % 5`: GET /metrics,
/// GET /telemetry.json, GET /violations, POST the probe property, DELETE
/// it. Violations the GET drains are appended to `drained`. False on a
/// non-2xx answer or a transport error.
bool ControlOp(std::uint16_t port, std::size_t op,
               std::optional<std::uint64_t>* probe_id, double* rtt_ms,
               std::vector<ViolationKey>* drained) {
  int status = 0;
  std::string body;
  std::string method = "GET", target, payload;
  switch (op % 5) {
    case 0: target = "/metrics"; break;
    case 1: target = "/telemetry.json"; break;
    case 2: target = std::string("/violations?tenant=") + kTenant; break;
    case 3:
      method = "POST";
      target = std::string("/tenants/") + kTenant + "/properties";
      payload = kProbeSpl;
      break;
    default:
      if (!*probe_id) return false;
      method = "DELETE";
      target = std::string("/tenants/") + kTenant + "/properties/" +
               std::to_string(**probe_id);
      break;
  }
  const auto t0 = Clock::now();
  const bool ok = swmon::HttpRoundTrip(port, method, target, payload, &status,
                                       &body);
  *rtt_ms = SecondsSince(t0) * 1e3;
  if (!ok || status < 200 || status > 299) return false;
  if (op % 5 == 2) return ParseViolationsJson(body, drained);
  if (op % 5 == 3) {
    const std::size_t at = body.find("\"id\":");
    if (at == std::string::npos) return false;
    *probe_id = std::strtoull(body.c_str() + at + 5, nullptr, 10);
  }
  if (op % 5 == 4) probe_id->reset();
  return true;
}

/// Waits until the daemon has ingested `n` events; false on timeout.
bool WaitIngested(swmon::SwmonDaemon& d, std::uint64_t n) {
  const auto t0 = Clock::now();
  while (d.events_ingested() < n) {
    if (SecondsSince(t0) > kIngestTimeoutS) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return true;
}

/// Drains the tenant's violations back to back (each DrainViolations is a
/// pump command), stamping each with the wall time it was received. A
/// second thread samples RSS every millisecond; the consumer itself blocks
/// for a whole pump round, which on a closed loop can last a second.
class Consumer {
 public:
  explicit Consumer(swmon::SwmonDaemon& daemon)
      : daemon_(daemon),
        peak_rss_(RssBytes()),
        thread_([this] { Loop(); }),
        sampler_([this] { Sample(); }) {}
  ~Consumer() { Stop(); }
  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Issues one last drain after the call, then joins.
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    if (sampler_.joinable()) sampler_.join();
  }

  /// Valid after Stop().
  std::vector<std::pair<ViolationKey, Clock::time_point>> received;
  std::uint64_t peak_rss() const { return peak_rss_; }

 private:
  void Loop() {
    for (;;) {
      const bool stop = stop_.load(std::memory_order_acquire);
      auto drained = daemon_.DrainViolations(kTenant);
      const auto now = Clock::now();
      if (drained)
        for (const swmon::Violation& v : *drained)
          received.emplace_back(KeyOf(v), now);
      if (stop) break;
    }
  }
  void Sample() {
    while (!stop_.load(std::memory_order_acquire)) {
      peak_rss_ = std::max(peak_rss_, RssBytes());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    peak_rss_ = std::max(peak_rss_, RssBytes());
  }

  swmon::SwmonDaemon& daemon_;
  std::atomic<bool> stop_{false};
  std::uint64_t peak_rss_;  // written by sampler_ only, read after Stop()
  std::thread thread_;
  std::thread sampler_;
};

/// Folds one repetition's daemon-side failure counters into `r`.
void AccountDaemon(const swmon::telemetry::Snapshot& snap, std::uint64_t n,
                   std::uint64_t ingested, EndToEndResult& r) {
  r.not_ingested += n - std::min(n, ingested);
  r.decode_errors += snap.counter("daemon.socket.decode_errors");
  r.ring_dropped += snap.counter(std::string("daemon.tenant.") + kTenant +
                                 ".violations_dropped");
}

double RssGrowthMb(std::uint64_t peak, std::uint64_t base) {
  return peak > base ? static_cast<double>(peak - base) / kMiB : 0.0;
}

bool OpenRep(const Workload& w, const EncodedStream& s,
             const std::vector<std::string>& spl,
             EndToEndResult& r, std::vector<ViolationKey>& keys) {
  const std::size_t n = s.size();
  const double rate = w.rate_eps;
  std::vector<double> late(n);  // generator buffer: allocated before Start
  std::vector<std::pair<double, double>> backlog;  // (t, sent - ingested)
  backlog.reserve(1 << 16);
  LiveDaemon ld;
  if (!StartDaemon(w, spl, &ld, &r.error)) return false;
  r.setup_s.push_back(ld.setup_s);
  r.control_errors += ld.attach_failures;
  swmon::SwmonDaemon& d = *ld.daemon;
  // The sender writes small batches on a schedule; Nagle would hold each
  // one back until the previous one is acknowledged.
  const int one = 1;
  ::setsockopt(ld.event_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Consumer consumer(d);

  std::atomic<std::size_t> sent{0};
  std::atomic<bool> sender_done{false};
  bool send_ok = true;
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
  };
  std::thread sender([&] {
    std::this_thread::sleep_until(t0);
    send_ok = SendAll(ld.event_fd, s.bytes.data(), EncodedStream::kHeaderBytes);
    std::size_t i = 0;
    while (send_ok && i < n) {
      const auto now = Clock::now();
      const double elapsed = std::chrono::duration<double>(now - t0).count();
      const std::size_t due_by_now = std::min(
          n, static_cast<std::size_t>(std::max(0.0, elapsed * rate)) + 1);
      if (due_by_now > i) {
        for (std::size_t k = i; k < due_by_now; ++k)
          late[k] = std::chrono::duration<double, std::micro>(now - due(k))
                        .count();
        send_ok = SendAll(ld.event_fd, s.bytes.data() + s.begin(i),
                          s.ends[due_by_now - 1] - s.begin(i));
        i = due_by_now;
        sent.store(i, std::memory_order_release);
      }
      if (i < n) std::this_thread::sleep_for(kSendTick);
    }
    sender_done.store(true, std::memory_order_release);
  });

  // The control client: one op per interval, on this thread.
  std::optional<std::uint64_t> probe_id;
  std::vector<std::pair<ViolationKey, Clock::time_point>> control_received;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      kControlInterval);
  auto next_op = t0 + interval;
  std::size_t op = 0;
  std::vector<double> rtts;
  const auto run_op = [&] {
    std::vector<ViolationKey> drained;
    double rtt = 0;
    if (!ControlOp(d.http_port(), op, &probe_id, &rtt, &drained))
      ++r.control_errors;
    const auto now = Clock::now();
    for (ViolationKey& k : drained) control_received.emplace_back(k, now);
    rtts.push_back(rtt);
    ++op;
  };
  while (!sender_done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_until(next_op);
    next_op += interval;
    backlog.emplace_back(
        SecondsSince(t0),
        static_cast<double>(sent.load(std::memory_order_acquire)) -
            static_cast<double>(d.events_ingested()));
    run_op();
  }
  sender.join();
  const double backlog_end = static_cast<double>(n) -
                             static_cast<double>(d.events_ingested());
  while (op % 5 != 0) run_op();  // finish the attach/detach pair
  ld.CloseEvents();
  if (!send_ok) {
    r.error = "event send failed";
    return false;
  }
  WaitIngested(d, n);
  const swmon::telemetry::Snapshot snap = d.Telemetry();
  consumer.Stop();
  AccountDaemon(snap, n, d.events_ingested(), r);
  r.rss_mb.push_back(RssGrowthMb(consumer.peak_rss(), ld.rss_base));
  r.backlog_end.push_back(backlog_end);
  r.attempted += op;

  std::vector<double> detect;
  const auto record = [&](std::pair<ViolationKey, Clock::time_point>& rec) {
    const std::size_t idx = TriggerIndex(s.times_ns, rec.first.time_ns);
    if (idx < n)
      detect.push_back(
          std::chrono::duration<double, std::micro>(rec.second - due(idx))
              .count());
    keys.push_back(std::move(rec.first));
  };
  for (auto& rec : consumer.received) record(rec);
  for (auto& rec : control_received) record(rec);

  // Open-loop validity: the generator kept to its schedule and the
  // backlog did not grow from the first quarter of the run to the last.
  bool grows = false;
  if (backlog.size() >= 8) {
    const std::size_t q = backlog.size() / 4;
    double first = 0, last = 0;
    for (std::size_t i = 0; i < q; ++i) {
      first += backlog[i].second;
      last += backlog[backlog.size() - 1 - i].second;
    }
    grows = last / q > 2 * (first / q) + 0.005 * rate;
  }
  const bool late_ok = Percentile(late, 99) <= kMaxLateP99Us;
  if (grows || !late_ok) ++r.unmet_open_reps;
  r.detect_us.push_back(std::move(detect));
  r.control_ms.push_back(std::move(rtts));
  r.late_us.insert(r.late_us.end(), late.begin(), late.end());
  return true;
}

}  // namespace

std::uint64_t RssBytes() {
  const int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0;
  char buf[128];
  const ssize_t got = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (got <= 0) return 0;
  buf[got] = '\0';
  unsigned long long size = 0, resident = 0;
  if (std::sscanf(buf, "%llu %llu", &size, &resident) != 2) return 0;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

bool SendAll(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::send(fd, data + done, n - done, MSG_NOSIGNAL);
    if (w <= 0) return false;
    done += static_cast<std::size_t>(w);
  }
  return true;
}

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool RunClosed(const Workload& w, const EncodedStream& s,
               const std::vector<std::string>& spl, int control_cycles,
               ClosedOutcome* out, std::string* error) {
  LiveDaemon ld;
  if (!StartDaemon(w, spl, &ld, error)) return false;
  out->setup_s = ld.setup_s;
  out->attach_failures = ld.attach_failures;
  swmon::SwmonDaemon& d = *ld.daemon;
  if (control_cycles > 0) out->before = d.Telemetry();
  Consumer consumer(d);
  const auto t0 = Clock::now();
  if (!SendAll(ld.event_fd, s.bytes.data(), s.bytes.size())) {
    if (error) *error = "event send failed";
    return false;
  }
  ld.CloseEvents();
  WaitIngested(d, s.size());
  out->after = d.Telemetry();
  out->seconds = SecondsSince(t0);
  out->ingested = d.events_ingested();
  consumer.Stop();
  out->rss_mb = RssGrowthMb(consumer.peak_rss(), ld.rss_base);
  for (auto& [key, t] : consumer.received) out->keys.push_back(std::move(key));

  std::optional<std::uint64_t> probe_id;
  for (int op = 0; op < 5 * control_cycles; ++op) {
    std::vector<ViolationKey> drained;
    double rtt = 0;
    if (!ControlOp(d.http_port(), static_cast<std::size_t>(op), &probe_id,
                   &rtt, &drained))
      ++out->control_errors;
    out->control_ms[op % 5].push_back(rtt);
    for (ViolationKey& k : drained) out->keys.push_back(std::move(k));
  }
  return true;
}

EndToEndResult RunEndToEnd(const Workload& w, const EncodedStream& stream,
                           double seconds) {
  EndToEndResult r;
  std::vector<std::string> spl;
  for (const swmon::Property& p : w.properties)
    spl.push_back(swmon::SerializeSpl(p));
  std::vector<std::vector<ViolationKey>> reps;
  const auto start = Clock::now();

  // Closed loop: ~60% of the run.
  double last = 0;
  while (r.closed_reps < 2 || SecondsSince(start) + last <= 0.6 * seconds) {
    const auto t = Clock::now();
    ClosedOutcome o;
    if (!RunClosed(w, stream, spl, 0, &o, &r.error)) return r;
    r.setup_s.push_back(o.setup_s);
    r.control_errors += o.attach_failures;
    r.throughput_eps.push_back(static_cast<double>(stream.size()) / o.seconds);
    r.rss_mb.push_back(o.rss_mb);
    AccountDaemon(o.after, stream.size(), o.ingested, r);
    reps.push_back(std::move(o.keys));
    ++r.closed_reps;
    last = SecondsSince(t);
  }
  // Open loop at the workload's rate, control ops alongside: the rest.
  last = 0;
  while (r.open_reps < 1 || SecondsSince(start) + last <= seconds) {
    const auto t = Clock::now();
    reps.emplace_back();
    if (!OpenRep(w, stream, spl, r, reps.back())) return r;
    ++r.open_reps;
    last = SecondsSince(t);
  }

  // The oracle runs after every measurement.
  std::vector<ViolationKey> expected;
  if (!RunOracle(w.properties, stream, &expected)) {
    r.oracle_ok = false;
    r.error = "stream does not decode";
    return r;
  }
  for (std::vector<ViolationKey>& rep : reps) {
    r.attempted += stream.size() + expected.size();
    const MultisetDiff diff = CompareMultisets(expected, std::move(rep));
    r.missing += diff.missing;
    r.extra += diff.extra;
  }
  if (r.missing + r.extra > 0) r.oracle_ok = false;
  return r;
}

}  // namespace perfbench
