// swmond components and the assembled daemon: live ingestion (tailer,
// socket text + binary), the embedded HTTP control plane, tenant lifecycle
// over HTTP, and the bounded violation ring. Carries the `daemon` CTest
// label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <functional>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <netinet/in.h>
#include <unistd.h>

#include "daemon/daemon.hpp"
#include "daemon/event_source.hpp"
#include "daemon/http_server.hpp"
#include "daemon/violation_ring.hpp"
#include "netsim/trace_io.hpp"

namespace swmon {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

DataplaneEvent MakeEvent(std::int64_t time_ns, std::uint64_t ip_src,
                         std::uint64_t l4_dst) {
  DataplaneEvent ev;
  ev.type = DataplaneEventType::kArrival;
  ev.time = SimTime::Zero() + Duration::Nanos(time_ns);
  ev.packet_bytes = 64;
  ev.fields.Set(FieldId::kIpSrc, ip_src);
  ev.fields.Set(FieldId::kL4DstPort, l4_dst);
  return ev;
}

/// A property that violates when one source hits port 80 then port 81.
constexpr const char* kTwoStepSpl = R"(
property two_step {
  vars S;
  stage "first" on arrival {
    match l4_dst == 80;
    bind S = ip_src;
  }
  stage "second" on arrival {
    match ip_src == $S;
    match l4_dst == 81;
  }
})";

/// One two_step violation from source `ip` at `t1`.
std::vector<DataplaneEvent> TwoStepPair(std::int64_t t0, std::int64_t t1,
                                        std::uint64_t ip) {
  return {MakeEvent(t0, ip, 80), MakeEvent(t1, ip, 81)};
}

bool SendToTcp(std::uint16_t port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + sent, payload.size() - sent,
                             0);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return true;
}

void WaitForIngest(const SwmonDaemon& daemon, std::uint64_t at_least,
                   int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; ++waited) {
    if (daemon.events_ingested() >= at_least) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------- parsing

TEST(ParseEventLineTest, ParsesTypesFieldsAndHex) {
  DataplaneEvent ev;
  std::string error;
  ASSERT_TRUE(ParseEventLine("arrival 1500 bytes=64 ip_src=0x0a000001 l4_dst=80",
                             ev, &error))
      << error;
  EXPECT_EQ(ev.type, DataplaneEventType::kArrival);
  EXPECT_EQ(ev.time.nanos(), 1500);
  EXPECT_EQ(ev.packet_bytes, 64u);
  EXPECT_EQ(ev.fields.Get(FieldId::kIpSrc), 0x0a000001u);
  EXPECT_EQ(ev.fields.Get(FieldId::kL4DstPort), 80u);

  ASSERT_TRUE(ParseEventLine("egress 2000", ev, &error)) << error;
  EXPECT_EQ(ev.type, DataplaneEventType::kEgress);
  ASSERT_TRUE(ParseEventLine("link 3000 link_up=1", ev, &error)) << error;
  EXPECT_EQ(ev.type, DataplaneEventType::kLinkStatus);
}

TEST(ParseEventLineTest, BlankAndCommentLinesAreSkippedSilently) {
  DataplaneEvent ev;
  std::string error = "sentinel";
  EXPECT_FALSE(ParseEventLine("", ev, &error));
  EXPECT_TRUE(error.empty());
  error = "sentinel";
  EXPECT_FALSE(ParseEventLine("  # comment", ev, &error));
  EXPECT_TRUE(error.empty());
}

TEST(ParseEventLineTest, RejectsBadInput) {
  DataplaneEvent ev;
  std::string error;
  EXPECT_FALSE(ParseEventLine("knock 100", ev, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseEventLine("arrival", ev, &error));
  EXPECT_FALSE(ParseEventLine("arrival xyz", ev, &error));
  EXPECT_FALSE(ParseEventLine("arrival 100 nosuchfield=1", ev, &error));
  EXPECT_FALSE(ParseEventLine("arrival 100 ip_src", ev, &error));
  // Unsigned only: a sign or an out-of-range value is an error, not a
  // wrapped or saturated number.
  EXPECT_FALSE(ParseEventLine("arrival -5", ev, &error));
  EXPECT_FALSE(ParseEventLine("arrival 100 ip_src=-1", ev, &error));
  EXPECT_FALSE(ParseEventLine("arrival 100 ip_src=+1", ev, &error));
  EXPECT_FALSE(ParseEventLine("arrival 100 ip_src=0x-3", ev, &error));
  EXPECT_FALSE(ParseEventLine("arrival 99999999999999999999999", ev, &error));
  EXPECT_FALSE(
      ParseEventLine("arrival 100 ip_src=0x10000000000000000", ev, &error));
}

// ---------------------------------------------------------------- decoder

TEST(TraceEventDecoderTest, DecodesAcrossArbitraryChunkBoundaries) {
  ByteWriter w;
  std::vector<DataplaneEvent> events;
  for (int i = 0; i < 17; ++i) {
    events.push_back(MakeEvent(1000 * (i + 1), 7 + i, i % 2 ? 80 : 81));
    EncodeTraceEvent(w, events.back());
  }
  const auto& bytes = w.bytes();

  // Worst case: one byte at a time.
  TraceEventDecoder dec;
  std::vector<DataplaneEvent> decoded;
  for (const std::uint8_t b : bytes) {
    dec.Feed(&b, 1);
    DataplaneEvent ev;
    while (dec.Next(ev) == TraceEventDecoder::Result::kEvent)
      decoded.push_back(ev);
  }
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(decoded[i].time, events[i].time) << i;
    EXPECT_EQ(decoded[i].fields.Get(FieldId::kIpSrc),
              events[i].fields.Get(FieldId::kIpSrc))
        << i;
  }
  EXPECT_EQ(dec.pending_bytes(), 0u);
  EXPECT_EQ(dec.events_decoded(), events.size());
}

TEST(TraceEventDecoderTest, CorruptStreamIsTerminal) {
  TraceEventDecoder dec;
  std::vector<std::uint8_t> junk(64, 0xff);  // type byte 0xff: invalid
  dec.Feed(junk.data(), junk.size());
  DataplaneEvent ev;
  EXPECT_EQ(dec.Next(ev), TraceEventDecoder::Result::kCorrupt);
  EXPECT_FALSE(dec.error().empty());
  EXPECT_EQ(dec.Next(ev), TraceEventDecoder::Result::kCorrupt);
}

TEST(TraceEventDecoderTest, OversizedPresenceMaskIsCorruptNotOverread) {
  // A presence mask claiming fields beyond kNumFieldIds is a malformed
  // (oversized) record: the decoder must flag it *before* trying to read
  // the impossible field payload, not wait for 64 values that never come.
  ByteWriter w;
  w.WriteU8(0);                      // valid type
  w.WriteU64LE(1000);                // time
  w.WriteU32LE(64);                  // packet_bytes
  w.WriteU64LE(~std::uint64_t{0});   // presence: all 64 bits
  TraceEventDecoder dec;
  dec.Feed(w.bytes().data(), w.bytes().size());
  DataplaneEvent ev;
  EXPECT_EQ(dec.Next(ev), TraceEventDecoder::Result::kCorrupt);
  EXPECT_NE(dec.error().find("presence"), std::string::npos) << dec.error();
}

TEST(TraceEventDecoderTest, TruncatedRecordIsNeedMoreUntilTheLastByte) {
  ByteWriter w;
  EncodeTraceEvent(w, MakeEvent(1000, 7, 80));
  const auto& bytes = w.bytes();
  TraceEventDecoder dec;
  dec.Feed(bytes.data(), bytes.size() - 1);
  DataplaneEvent ev;
  EXPECT_EQ(dec.Next(ev), TraceEventDecoder::Result::kNeedMore);
  EXPECT_EQ(dec.pending_bytes(), bytes.size() - 1);
  const std::uint8_t last = bytes.back();
  dec.Feed(&last, 1);
  EXPECT_EQ(dec.Next(ev), TraceEventDecoder::Result::kEvent);
  EXPECT_EQ(dec.pending_bytes(), 0u);
  EXPECT_EQ(ev.fields.Get(FieldId::kIpSrc), std::optional<std::uint64_t>(7));
}

// ------------------------------------------------------ corrupted sockets

std::string BinaryStreamPayload(const std::vector<DataplaneEvent>& events) {
  ByteWriter w;
  const std::uint8_t magic[4] = {'S', 'W', 'M', 'T'};
  w.WriteBytes(magic);
  w.WriteU32LE(2);
  w.WriteU64LE(0);
  for (const DataplaneEvent& ev : events) EncodeTraceEvent(w, ev);
  return std::string(reinterpret_cast<const char*>(w.bytes().data()),
                     w.bytes().size());
}

std::vector<DataplaneEvent> PollUntil(SocketSource& src, std::size_t want,
                                      int timeout_ms = 5000) {
  std::vector<DataplaneEvent> out;
  for (int waited = 0; waited < timeout_ms && out.size() < want; ++waited) {
    src.Poll(out);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return out;
}

void WaitForCount(const std::function<std::uint64_t()>& counter,
                  std::uint64_t at_least, int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; ++waited) {
    if (counter() >= at_least) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(SocketSourceCorruptionTest, CorruptBinaryRecordCountsAndKeepsServing) {
  SocketSourceOptions opts;
  opts.tcp_enabled = true;
  SocketSource src(opts);
  std::string error;
  ASSERT_TRUE(src.Start(&error)) << error;

  // One good event, then garbage (0xff is not a valid type byte).
  std::string payload = BinaryStreamPayload({MakeEvent(1000, 7, 80)});
  payload.append(40, '\xff');
  ASSERT_TRUE(SendToTcp(src.tcp_port(), payload));
  WaitForCount([&] { return src.decode_errors(); }, 1);
  EXPECT_EQ(src.decode_errors(), 1u);
  EXPECT_EQ(src.protocol_errors(), 1u);
  // The event decoded before the corruption was kept.
  EXPECT_EQ(PollUntil(src, 1).size(), 1u);

  // The listener survives: a clean follow-up connection still delivers.
  ASSERT_TRUE(SendToTcp(src.tcp_port(),
                        BinaryStreamPayload({MakeEvent(2000, 8, 81)})));
  const auto after = PollUntil(src, 1);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].fields.Get(FieldId::kIpSrc),
            std::optional<std::uint64_t>(8));
  EXPECT_EQ(src.decode_errors(), 1u);  // the good stream added nothing
  src.Stop();
}

TEST(SocketSourceCorruptionTest, TruncatedBinaryTailSurfacesDecodeError) {
  // A stream that closes mid-record previously vanished without a trace;
  // it must count as a decode error (but not a dropped connection).
  SocketSourceOptions opts;
  opts.tcp_enabled = true;
  SocketSource src(opts);
  std::string error;
  ASSERT_TRUE(src.Start(&error)) << error;

  std::string payload =
      BinaryStreamPayload({MakeEvent(1000, 7, 80), MakeEvent(2000, 7, 81)});
  payload.resize(payload.size() - 5);  // close mid-second-event
  ASSERT_TRUE(SendToTcp(src.tcp_port(), payload));
  WaitForCount([&] { return src.decode_errors(); }, 1);
  EXPECT_EQ(src.decode_errors(), 1u);
  EXPECT_EQ(src.protocol_errors(), 0u);
  const auto out = PollUntil(src, 1);
  ASSERT_EQ(out.size(), 1u);  // the complete first event survived
  EXPECT_EQ(out[0].time.nanos(), 1000);

  // Same for a stream that dies inside the 16-byte header.
  ASSERT_TRUE(SendToTcp(src.tcp_port(), std::string("SWMT\x02", 5)));
  WaitForCount([&] { return src.decode_errors(); }, 2);
  EXPECT_EQ(src.decode_errors(), 2u);
  src.Stop();
}

TEST(SocketSourceCorruptionTest, UnterminatedFinalTextLineIsParsed) {
  // `printf 'arrival ...' | nc` without a trailing newline must still
  // ingest the line at close instead of discarding it.
  SocketSourceOptions opts;
  opts.tcp_enabled = true;
  SocketSource src(opts);
  std::string error;
  ASSERT_TRUE(src.Start(&error)) << error;

  ASSERT_TRUE(SendToTcp(src.tcp_port(),
                        "arrival 1000 ip_src=7 l4_dst=80\n"
                        "arrival 2000 ip_src=7 l4_dst=81"));
  const auto out = PollUntil(src, 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].time.nanos(), 2000);
  EXPECT_EQ(src.decode_errors(), 0u);

  // A malformed unterminated tail is counted, not crashed on.
  ASSERT_TRUE(SendToTcp(src.tcp_port(), "arrival 3000\nknock 4000"));
  WaitForCount([&] { return src.decode_errors(); }, 1);
  EXPECT_EQ(src.decode_errors(), 1u);
  EXPECT_EQ(PollUntil(src, 1).size(), 1u);  // the good line before it
  src.Stop();
}

TEST(SocketSourceCorruptionTest, OversizedTextLineIsRejectedNotBuffered) {
  SocketSourceOptions opts;
  opts.tcp_enabled = true;
  SocketSource src(opts);
  std::string error;
  ASSERT_TRUE(src.Start(&error)) << error;

  // 80KiB with no newline: the reader must cap the line and drop the
  // connection instead of growing the buffer until the client relents.
  ASSERT_TRUE(SendToTcp(src.tcp_port(), std::string(80 * 1024, 'a')));
  WaitForCount([&] { return src.decode_errors(); }, 1);
  EXPECT_GE(src.decode_errors(), 1u);
  EXPECT_GE(src.protocol_errors(), 1u);
  std::vector<DataplaneEvent> out;
  src.Poll(out);
  EXPECT_TRUE(out.empty());
  src.Stop();
}

// ------------------------------------------------ per-chunk handoff

/// `n` events from `ip_src`, times t0, t0+1, ... (37 wire bytes each).
std::vector<DataplaneEvent> NumberedEvents(std::size_t n, std::uint64_t ip_src,
                                           std::int64_t t0 = 1) {
  std::vector<DataplaneEvent> events;
  for (std::size_t i = 0; i < n; ++i)
    events.push_back(MakeEvent(t0 + static_cast<std::int64_t>(i), ip_src,
                               80 + i % 2));
  return events;
}

TEST(SocketSourceHandoffTest, SmallQueueTakesALargeBurstCompleteAndInOrder) {
  SocketSourceOptions opts;
  opts.tcp_enabled = true;
  opts.queue_capacity = 4;
  SocketSource src(opts);
  std::string error;
  ASSERT_TRUE(src.Start(&error)) << error;

  constexpr std::size_t kEvents = 2000;  // 74 KB on the wire
  const std::string payload = BinaryStreamPayload(NumberedEvents(kEvents, 7));
  ASSERT_GE(payload.size(), 64u * 1024);
  // Backpressure blocks the reader at 4 queued events, and then the
  // sender: send from another thread while this one drains.
  bool sent = false;
  std::thread sender([&] { sent = SendToTcp(src.tcp_port(), payload); });
  const auto out = PollUntil(src, kEvents);
  sender.join();
  EXPECT_TRUE(sent);
  ASSERT_EQ(out.size(), kEvents);
  for (std::size_t i = 0; i < kEvents; ++i)
    ASSERT_EQ(out[i].time.nanos(), static_cast<std::int64_t>(i + 1)) << i;
  EXPECT_LE(src.queue_high_water(), 4u);
  EXPECT_GE(src.handoffs(), kEvents / 4);  // exact bound: slices of <= 4
  EXPECT_EQ(src.events_ingested(), kEvents);
  src.Stop();
}

TEST(SocketSourceHandoffTest, ConcurrentConnectionsKeepTheirOwnOrder) {
  SocketSourceOptions opts;
  opts.tcp_enabled = true;
  SocketSource src(opts);
  std::string error;
  ASSERT_TRUE(src.Start(&error)) << error;

  constexpr std::size_t kEach = 20000;
  const std::string a = BinaryStreamPayload(NumberedEvents(kEach, 1));
  const std::string b = BinaryStreamPayload(NumberedEvents(kEach, 2));
  bool sent_a = false, sent_b = false;
  std::thread ta([&] { sent_a = SendToTcp(src.tcp_port(), a); });
  std::thread tb([&] { sent_b = SendToTcp(src.tcp_port(), b); });
  const auto out = PollUntil(src, 2 * kEach);
  ta.join();
  tb.join();
  EXPECT_TRUE(sent_a && sent_b);
  ASSERT_EQ(out.size(), 2 * kEach);

  // Each connection's events arrive in its own order...
  std::int64_t next[3] = {0, 1, 1};
  std::uint64_t runs = 0;
  std::uint64_t last_src = 0;
  for (const DataplaneEvent& ev : out) {
    const std::uint64_t ip = *ev.fields.Get(FieldId::kIpSrc);
    ASSERT_TRUE(ip == 1 || ip == 2);
    ASSERT_EQ(ev.time.nanos(), next[ip]++) << "connection " << ip;
    if (ip != last_src) ++runs;
    last_src = ip;
  }
  // ...and the two interleave only at handoff boundaries: a run of one
  // connection's events is at least one whole handoff.
  EXPECT_LE(runs, src.handoffs());
  src.Stop();
}

TEST(SocketSourceHandoffTest, BulkSendHandsOffPerChunkInDaemonTelemetry) {
  SwmondOptions opts;
  opts.tcp_enabled = true;
  SwmonDaemon daemon(std::move(opts));
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  constexpr std::size_t kEvents = 20000;  // ~740 KB in one send loop
  ASSERT_TRUE(SendToTcp(daemon.tcp_port(),
                        BinaryStreamPayload(NumberedEvents(kEvents, 3))));
  WaitForIngest(daemon, kEvents);
  ASSERT_EQ(daemon.events_ingested(), kEvents);
  const telemetry::Snapshot snap = daemon.Telemetry();
  const std::uint64_t handoffs = snap.counter("daemon.socket.handoffs");
  // One handoff per recv chunk (up to 64 KiB, ~1770 of these events), not
  // one per event; allow for short reads when the reader outruns the
  // sender.
  EXPECT_GE(handoffs, 1u);
  EXPECT_LE(handoffs * 8, kEvents) << handoffs << " handoffs";
  EXPECT_GE(snap.gauge("daemon.socket.queue_high_water"), 1);
  EXPECT_LE(snap.gauge("daemon.socket.queue_high_water"),
            static_cast<std::int64_t>(SocketSourceOptions{}.queue_capacity));
  daemon.Stop();
}

// ----------------------------------------------------------------- tailer

TEST(TraceTailerTest, FollowsAGrowingFileAcrossFlushes) {
  const std::string path = TempPath("tailer_grow.swmt");
  std::remove(path.c_str());

  TraceTailer tailer(path);
  std::vector<DataplaneEvent> out;
  // File does not exist yet: alive, no events.
  EXPECT_TRUE(tailer.Poll(out));
  EXPECT_TRUE(out.empty());

  TraceFileWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(path, &error)) << error;
  ASSERT_TRUE(writer.Flush(&error)) << error;  // header only so far
  EXPECT_TRUE(tailer.Poll(out));
  EXPECT_TRUE(out.empty());

  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 3; ++i)
      writer.Append(MakeEvent(1000 * (round * 3 + i + 1), 9, 80));
    ASSERT_TRUE(writer.Flush(&error)) << error;
    std::vector<DataplaneEvent> batch;
    EXPECT_TRUE(tailer.Poll(batch));
    EXPECT_EQ(batch.size(), 3u) << "round " << round;
    out.insert(out.end(), batch.begin(), batch.end());
  }
  writer.Close();
  EXPECT_EQ(out.size(), 15u);
  EXPECT_EQ(tailer.events_ingested(), 15u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i].time.nanos(), static_cast<std::int64_t>(1000 * (i + 1)));

  // And the finished file is a valid v2 trace for the batch loader too.
  TraceRecorder loaded;
  ASSERT_TRUE(LoadTrace(path, loaded, &error)) << error;
  EXPECT_EQ(loaded.size(), 15u);
}

TEST(TraceTailerTest, RejectsNonTraceFile) {
  const std::string path = TempPath("tailer_bad.swmt");
  std::ofstream(path) << "this is not a trace file at all, definitely";
  TraceTailer tailer(path);
  std::vector<DataplaneEvent> out;
  EXPECT_FALSE(tailer.Poll(out));
  EXPECT_FALSE(tailer.error().empty());
}

// ------------------------------------------------------------------- ring

TEST(ViolationRingTest, DropsOldestAndCounts) {
  ViolationRing ring(3);
  for (int i = 0; i < 5; ++i) {
    Violation v;
    v.property = "p" + std::to_string(i);
    ring.Push(std::move(v));
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto drained = ring.Drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].property, "p2");  // oldest surviving first
  EXPECT_EQ(drained[2].property, "p4");
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.drained(), 3u);
}

// ------------------------------------------------------------------- http

TEST(HttpServerTest, ServesHandlerAndRoutesMethodPathQueryBody) {
  HttpServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0,
                           [](const HttpRequest& req) {
                             if (req.path == "/boom")
                               throw std::runtime_error("kaboom");
                             HttpResponse resp;
                             resp.body = req.method + " " + req.path + " q=" +
                                         req.QueryParam("q") + " body=" +
                                         req.body;
                             return resp;
                           },
                           &error))
      << error;
  ASSERT_NE(server.port(), 0);

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpRoundTrip(server.port(), "GET", "/x?q=42", "", &status,
                            &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "GET /x q=42 body=");

  ASSERT_TRUE(HttpRoundTrip(server.port(), "POST", "/y", "hello", &status,
                            &body, &error))
      << error;
  EXPECT_EQ(body, "POST /y q= body=hello");

  // Handler exceptions become 500s, not dead servers.
  ASSERT_TRUE(
      HttpRoundTrip(server.port(), "GET", "/boom", "", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 500);
  ASSERT_TRUE(
      HttpRoundTrip(server.port(), "GET", "/x", "", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_GE(server.requests_served(), 4u);
  server.Stop();
}

// ------------------------------------------------------------ end-to-end

TEST(SwmonDaemonTest, SocketTextIngestToViolationsOverHttp) {
  SwmondOptions opts;
  opts.tcp_enabled = true;
  SwmonDaemon daemon(std::move(opts));
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  ASSERT_NE(daemon.tcp_port(), 0);
  ASSERT_NE(daemon.http_port(), 0);

  // Hot-attach a property over the control API (tenant auto-created).
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpRoundTrip(daemon.http_port(), "POST",
                            "/tenants/acme/properties", kTwoStepSpl, &status,
                            &body, &error))
      << error;
  EXPECT_EQ(status, 201) << body;
  EXPECT_NE(body.find("\"id\":0"), std::string::npos) << body;

  // Bad SPL is a 400 with the parser's message, not a crash.
  ASSERT_TRUE(HttpRoundTrip(daemon.http_port(), "POST",
                            "/tenants/acme/properties", "property oops {",
                            &status, &body, &error))
      << error;
  EXPECT_EQ(status, 400);

  ASSERT_TRUE(SendToTcp(daemon.tcp_port(),
                        "# text protocol\n"
                        "arrival 1000 bytes=64 ip_src=7 l4_dst=80\n"
                        "arrival 2000 bytes=64 ip_src=7 l4_dst=81\n"));
  WaitForIngest(daemon, 2);
  ASSERT_EQ(daemon.events_ingested(), 2u);

  // The attached property runs on the compiled engine, the default: only
  // it publishes the monitor.compiled.* probe family.
  EXPECT_TRUE(daemon.Telemetry().Has(
      "daemon.tenant.acme.monitor.compiled.two_step.probes"));

  ASSERT_TRUE(HttpRoundTrip(daemon.http_port(), "GET",
                            "/violations?tenant=acme", "", &status, &body,
                            &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"property\":\"two_step\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"time_ns\":2000"), std::string::npos) << body;

  // Drained means drained: a second query is empty.
  ASSERT_TRUE(HttpRoundTrip(daemon.http_port(), "GET",
                            "/violations?tenant=acme", "", &status, &body,
                            &error))
      << error;
  EXPECT_EQ(body, "[]\n");

  // Unknown tenants and unknown routes are 404s.
  ASSERT_TRUE(HttpRoundTrip(daemon.http_port(), "GET",
                            "/violations?tenant=ghost", "", &status, &body,
                            &error))
      << error;
  EXPECT_EQ(status, 404);
  ASSERT_TRUE(HttpRoundTrip(daemon.http_port(), "GET", "/nope", "", &status,
                            &body, &error))
      << error;
  EXPECT_EQ(status, 404);

  daemon.Stop();
}

TEST(SwmonDaemonTest, BinarySocketIngestMatchesTraceWireFormat) {
  SwmondOptions opts;
  opts.tcp_enabled = true;
  SwmonDaemon daemon(std::move(opts));
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  std::string attach_error;
  ASSERT_TRUE(
      daemon.AttachProperty("bin", kTwoStepSpl, &attach_error).has_value())
      << attach_error;

  // Exactly what `cat trace.swmt | nc` would send: header + wire events.
  ByteWriter w;
  const std::uint8_t magic[4] = {'S', 'W', 'M', 'T'};
  w.WriteBytes(magic);
  w.WriteU32LE(2);
  w.WriteU64LE(0);  // count is ignored by the stream decoder
  for (const DataplaneEvent& ev : TwoStepPair(1000, 2000, 9))
    EncodeTraceEvent(w, ev);
  ASSERT_TRUE(SendToTcp(daemon.tcp_port(),
                        std::string(reinterpret_cast<const char*>(
                                        w.bytes().data()),
                                    w.bytes().size())));
  WaitForIngest(daemon, 2);
  EXPECT_EQ(daemon.events_ingested(), 2u);

  const auto drained = daemon.DrainViolations("bin");
  ASSERT_TRUE(drained.has_value());
  ASSERT_EQ(drained->size(), 1u);
  EXPECT_EQ((*drained)[0].property, "two_step");
  daemon.Stop();
}

TEST(SwmonDaemonTest, TailerIngestAndConfigDirTenants) {
  namespace fs = std::filesystem;
  const std::string config_dir = TempPath("swmond_config");
  fs::remove_all(config_dir);
  fs::create_directories(config_dir + "/teamA");
  std::ofstream(config_dir + "/teamA/two_step.spl") << kTwoStepSpl;

  const std::string trace_path = TempPath("swmond_live.swmt");
  std::remove(trace_path.c_str());

  SwmondOptions opts;
  opts.config_dir = config_dir;
  opts.trace_path = trace_path;
  opts.http_enabled = true;
  SwmonDaemon daemon(std::move(opts));
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  const auto props = daemon.TenantProperties("teamA");
  ASSERT_EQ(props.size(), 1u);
  EXPECT_EQ(props[0].name, "two_step");

  TraceFileWriter writer;
  ASSERT_TRUE(writer.Open(trace_path, &error)) << error;
  for (const DataplaneEvent& ev : TwoStepPair(1000, 2000, 5))
    writer.Append(ev);
  ASSERT_TRUE(writer.Flush(&error)) << error;
  WaitForIngest(daemon, 2);
  EXPECT_EQ(daemon.events_ingested(), 2u);

  // Grow the file again: the tailer keeps following.
  for (const DataplaneEvent& ev : TwoStepPair(3000, 4000, 6))
    writer.Append(ev);
  ASSERT_TRUE(writer.Flush(&error)) << error;
  WaitForIngest(daemon, 4);
  EXPECT_EQ(daemon.events_ingested(), 4u);
  writer.Close();

  const auto drained = daemon.DrainViolations("teamA");
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->size(), 2u);
  daemon.Stop();
}

TEST(SwmonDaemonTest, PerTenantEvictionFileCapsInstances) {
  namespace fs = std::filesystem;
  const std::string config_dir = TempPath("swmond_eviction_config");
  fs::remove_all(config_dir);
  fs::create_directories(config_dir + "/capped");
  fs::create_directories(config_dir + "/unbounded");
  std::ofstream(config_dir + "/capped/two_step.spl") << kTwoStepSpl;
  std::ofstream(config_dir + "/capped/eviction") << "creation-order:1\n";
  std::ofstream(config_dir + "/unbounded/two_step.spl") << kTwoStepSpl;

  const std::string trace_path = TempPath("swmond_eviction.swmt");
  std::remove(trace_path.c_str());

  SwmondOptions opts;
  opts.config_dir = config_dir;
  opts.trace_path = trace_path;
  opts.http_enabled = false;
  SwmonDaemon daemon(std::move(opts));
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  // Three first-steps open instances for ips 7/8/9; 'capped' (cap 1,
  // creation order) retains only ip 9 by the time the second steps land.
  TraceFileWriter writer;
  ASSERT_TRUE(writer.Open(trace_path, &error)) << error;
  for (std::uint64_t ip : {7u, 8u, 9u})
    writer.Append(MakeEvent(1000 * static_cast<std::int64_t>(ip), ip, 80));
  for (std::uint64_t ip : {7u, 8u, 9u})
    writer.Append(MakeEvent(1000 * static_cast<std::int64_t>(10 + ip), ip, 81));
  ASSERT_TRUE(writer.Flush(&error)) << error;
  WaitForIngest(daemon, 6);
  writer.Close();

  const auto capped = daemon.DrainViolations("capped");
  const auto unbounded = daemon.DrainViolations("unbounded");
  ASSERT_TRUE(capped.has_value());
  ASSERT_TRUE(unbounded.has_value());
  EXPECT_EQ(capped->size(), 1u);
  EXPECT_EQ(unbounded->size(), 3u);
  daemon.Stop();
}

TEST(SwmonDaemonTest, StartFailsOnBadEvictionFileWithFileInMessage) {
  namespace fs = std::filesystem;
  const std::string config_dir = TempPath("swmond_bad_eviction");
  fs::remove_all(config_dir);
  fs::create_directories(config_dir + "/teamA");
  std::ofstream(config_dir + "/teamA/two_step.spl") << kTwoStepSpl;
  std::ofstream(config_dir + "/teamA/eviction") << "frobnicate:1\n";

  SwmondOptions opts;
  opts.config_dir = config_dir;
  opts.tcp_enabled = true;
  SwmonDaemon daemon(std::move(opts));
  std::string error;
  EXPECT_FALSE(daemon.Start(&error));
  EXPECT_NE(error.find("eviction"), std::string::npos) << error;
  EXPECT_NE(error.find("frobnicate"), std::string::npos) << error;
}

TEST(SwmonDaemonTest, StartFailsOnBadConfigWithFileInMessage) {
  namespace fs = std::filesystem;
  const std::string config_dir = TempPath("swmond_badconfig");
  fs::remove_all(config_dir);
  fs::create_directories(config_dir + "/teamA");
  std::ofstream(config_dir + "/teamA/broken.spl") << "property nope {";

  SwmondOptions opts;
  opts.config_dir = config_dir;
  opts.tcp_enabled = true;
  SwmonDaemon daemon(std::move(opts));
  std::string error;
  EXPECT_FALSE(daemon.Start(&error));
  EXPECT_NE(error.find("broken.spl"), std::string::npos) << error;
}

TEST(SwmonDaemonTest, NonMonotoneTimestampsAreClampedNotFatal) {
  SwmondOptions opts;
  opts.tcp_enabled = true;
  SwmonDaemon daemon(std::move(opts));
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  std::string attach_error;
  ASSERT_TRUE(
      daemon.AttachProperty("t", kTwoStepSpl, &attach_error).has_value());

  // Second event goes backwards in time; the daemon clamps it forward.
  ASSERT_TRUE(SendToTcp(daemon.tcp_port(),
                        "arrival 5000 ip_src=7 l4_dst=80\n"
                        "arrival 1000 ip_src=7 l4_dst=81\n"));
  WaitForIngest(daemon, 2);
  const auto drained = daemon.DrainViolations("t");
  ASSERT_TRUE(drained.has_value());
  ASSERT_EQ(drained->size(), 1u);
  EXPECT_EQ((*drained)[0].time.nanos(), 5000);  // clamped to the high-water

  const telemetry::Snapshot snap = daemon.Telemetry();
  ASSERT_TRUE(snap.Has("daemon.events_clamped"));
  EXPECT_EQ(snap.samples().at("daemon.events_clamped").counter, 1u);
  daemon.Stop();
}

TEST(SwmonDaemonTest, HotDetachOverHttpAndTenantListing) {
  SwmondOptions opts;
  opts.tcp_enabled = true;
  opts.workers = 2;  // parallel tenants behind the same control plane
  SwmonDaemon daemon(std::move(opts));
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpRoundTrip(daemon.http_port(), "POST",
                            "/tenants/acme/properties", kTwoStepSpl, &status,
                            &body, &error))
      << error;
  ASSERT_EQ(status, 201) << body;

  ASSERT_TRUE(SendToTcp(daemon.tcp_port(),
                        "arrival 1000 ip_src=7 l4_dst=80\n"
                        "arrival 2000 ip_src=7 l4_dst=81\n"));
  WaitForIngest(daemon, 2);

  ASSERT_TRUE(HttpRoundTrip(daemon.http_port(), "GET", "/tenants", "", &status,
                            &body, &error))
      << error;
  EXPECT_NE(body.find("\"name\":\"acme\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"name\":\"two_step\""), std::string::npos) << body;

  ASSERT_TRUE(HttpRoundTrip(daemon.http_port(), "DELETE",
                            "/tenants/acme/properties/0", "", &status, &body,
                            &error))
      << error;
  EXPECT_EQ(status, 200) << body;
  // Detach is idempotent at the HTTP layer: second delete is a 404.
  ASSERT_TRUE(HttpRoundTrip(daemon.http_port(), "DELETE",
                            "/tenants/acme/properties/0", "", &status, &body,
                            &error))
      << error;
  EXPECT_EQ(status, 404);

  // The detached property's violations survived into the tenant ring.
  ASSERT_TRUE(HttpRoundTrip(daemon.http_port(), "GET",
                            "/violations?tenant=acme", "", &status, &body,
                            &error))
      << error;
  EXPECT_NE(body.find("\"property\":\"two_step\""), std::string::npos) << body;

  // /metrics and /telemetry.json keep serving throughout.
  ASSERT_TRUE(HttpRoundTrip(daemon.http_port(), "GET", "/metrics", "", &status,
                            &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("swmon_daemon_events_ingested 2"), std::string::npos)
      << body;
  ASSERT_TRUE(HttpRoundTrip(daemon.http_port(), "GET", "/telemetry.json", "",
                            &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  const auto parsed = telemetry::Snapshot::FromJson(body);
  ASSERT_TRUE(parsed.has_value()) << body;
  EXPECT_TRUE(parsed->Has("daemon.events_ingested"));
  daemon.Stop();
}

TEST(SwmonDaemonTest, UnixSocketIngest) {
  const std::string sock_path = TempPath("swmond_test.sock");
  SwmondOptions opts;
  opts.unix_socket_path = sock_path;
  SwmonDaemon daemon(std::move(opts));
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  std::string attach_error;
  ASSERT_TRUE(
      daemon.AttachProperty("u", kTwoStepSpl, &attach_error).has_value());

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                sock_path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string payload =
      "arrival 1000 ip_src=3 l4_dst=80\narrival 2000 ip_src=3 l4_dst=81\n";
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));
  ::close(fd);

  WaitForIngest(daemon, 2);
  const auto drained = daemon.DrainViolations("u");
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->size(), 1u);
  daemon.Stop();
}

TEST(TenantShardModeTest, InstanceShardedTenantMatchesSerialTenant) {
  // The --shard-mode knob reaches the tenant's worker pool: an instance-
  // sharded parallel tenant must drain exactly the violations a serial
  // tenant sees on the same stream, through the same ring/telemetry
  // surface the daemon uses.
  TenantOptions serial_opts;
  Tenant serial("serial", serial_opts);

  TenantOptions sharded_opts;
  sharded_opts.workers = 2;
  sharded_opts.shard_mode = ShardMode::kInstance;
  Tenant sharded("sharded", sharded_opts);

  std::string error;
  ASSERT_TRUE(serial.AttachSpl(kTwoStepSpl, &error).has_value()) << error;
  ASSERT_TRUE(sharded.AttachSpl(kTwoStepSpl, &error).has_value()) << error;

  std::vector<DataplaneEvent> events;
  for (std::uint64_t ip = 1; ip <= 40; ++ip) {
    const std::int64_t base = static_cast<std::int64_t>(ip) * 1000;
    for (const DataplaneEvent& ev : TwoStepPair(base, base + 500, ip))
      events.push_back(ev);
  }
  std::sort(events.begin(), events.end(),
            [](const DataplaneEvent& a, const DataplaneEvent& b) {
              return a.time < b.time;
            });
  for (const DataplaneEvent& ev : events) {
    serial.Deliver(ev);
    sharded.Deliver(ev);
  }
  serial.DrainEngines();
  sharded.DrainEngines();

  const std::vector<Violation> want = serial.DrainRing();
  const std::vector<Violation> got = sharded.DrainRing();
  ASSERT_EQ(want.size(), 40u);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].time, got[i].time) << i;
    EXPECT_EQ(want[i].instance_id, got[i].instance_id) << i;
    EXPECT_EQ(want[i].bindings, got[i].bindings) << i;
  }
}

TEST(ViolationsToJsonTest, EscapesAndSerializes) {
  Violation v;
  v.property = "has \"quotes\"";
  v.time = SimTime::Zero() + Duration::Nanos(7);
  v.instance_id = 3;
  v.trigger_stage = "line\nbreak";
  v.bindings = {{"H", 42}};
  const std::string json = ViolationsToJson({v});
  EXPECT_NE(json.find("has \\\"quotes\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos) << json;
  EXPECT_NE(json.find("\"H\":42"), std::string::npos) << json;
  EXPECT_EQ(ViolationsToJson({}), "[]\n");
}

}  // namespace
}  // namespace swmon
