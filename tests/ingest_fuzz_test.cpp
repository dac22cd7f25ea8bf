// Deterministic mutation fuzzing of the live-ingest decoders: the binary
// wire decoder (TraceEventDecoder), the text line parser (ParseEventLine),
// and SocketSource's per-connection reader over loopback. Seeds are
// perfbench-shaped event streams and the tests/data/*.events repros;
// mutations are byte flips, overwrites, insertions, deletions, record
// splices and truncations, all from a fixed Rng seed with a bounded
// iteration count, so every run sees the same inputs. Oracles:
//   * no crash (the suite runs under ASan and UBSan in CI);
//   * chunked decode equals whole-buffer decode — same events, same
//     terminal result, same error — for any split of the bytes;
//   * every decoded event re-encodes to exactly the bytes it came from;
//   * a parsed text line printed back and re-parsed is the same event;
//   * the socket reader delivers exactly the whole-buffer decode (binary)
//     or the line-by-line parse (text), in order, without ever holding
//     more than its queue capacity.
// Carries the `fuzz` CTest label.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/byte_io.hpp"
#include "common/rng.hpp"
#include "daemon/event_source.hpp"
#include "netsim/trace_io.hpp"

namespace swmon {
namespace {

using Bytes = std::vector<std::uint8_t>;
using Result = TraceEventDecoder::Result;

SimTime AtMicros(std::uint64_t us) {
  return SimTime::Zero() + Duration::Micros(static_cast<std::int64_t>(us));
}

/// The shapes of perfbench's three streams: keyed TCP arrivals with an
/// occasional ARP reply egress (edge_keyed), firewall return egress
/// (fw_flows_sharded), and ARP/DHCP/FTP/link chatter (catalog_mixed).
std::vector<DataplaneEvent> PerfbenchShapedEvents(Rng& rng, std::size_t n) {
  std::vector<DataplaneEvent> events;
  for (std::size_t i = 0; i < n; ++i) {
    DataplaneEvent ev;
    ev.time = AtMicros(i + 1);
    const auto roll = rng.NextBelow(100);
    if (roll < 50) {
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kPacketId, i + 1);
      ev.fields.Set(FieldId::kIpSrc, 1000 + rng.NextBelow(256));
      ev.fields.Set(FieldId::kIpDst, 2000 + rng.NextBelow(256));
      ev.fields.Set(FieldId::kIpProto, 6);
      ev.fields.Set(FieldId::kL4SrcPort, 30000 + rng.NextBelow(512));
      ev.fields.Set(FieldId::kL4DstPort, rng.NextBool(0.5) ? 80 : 443);
      ev.packet_bytes = 64 + static_cast<std::uint32_t>(rng.NextBelow(1400));
    } else if (roll < 70) {
      ev.type = DataplaneEventType::kEgress;
      ev.fields.Set(FieldId::kPacketId, i + 1);
      ev.fields.Set(FieldId::kIpSrc, 1 + rng.NextBelow(1u << 24));
      ev.fields.Set(FieldId::kIpDst, 1 + rng.NextBelow(1u << 24));
      ev.fields.Set(FieldId::kOutPort, 1);
      ev.fields.Set(FieldId::kEgressAction, rng.NextBelow(2));
    } else if (roll < 80) {
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kArpOp, 1 + rng.NextBelow(2));
      ev.fields.Set(FieldId::kArpSenderIp, 10 + rng.NextBelow(24));
      ev.fields.Set(FieldId::kArpTargetIp, 10 + rng.NextBelow(24));
      ev.fields.Set(FieldId::kArpSenderMac, 0xb0 + rng.NextBelow(24));
    } else if (roll < 90) {
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kDhcpMsgType, 1 + rng.NextBelow(5));
      ev.fields.Set(FieldId::kDhcpChaddr, 0xc0 + rng.NextBelow(16));
      ev.fields.Set(FieldId::kDhcpXid, rng.Next());
      ev.fields.Set(FieldId::kDhcpYiaddr, 300 + rng.NextBelow(16));
    } else if (roll < 97) {
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kL4DstPort, 21);
      ev.fields.Set(FieldId::kFtpMsgKind, rng.NextBelow(3));
      ev.fields.Set(FieldId::kFtpDataAddr, 1000 + rng.NextBelow(48));
      ev.fields.Set(FieldId::kFtpDataPort, 5000 + rng.NextBelow(64));
    } else {
      ev.type = DataplaneEventType::kLinkStatus;
      ev.fields.Set(FieldId::kLinkId, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kLinkUp, rng.NextBelow(2));
    }
    events.push_back(ev);
  }
  return events;
}

/// Every line of every tests/data/*.events repro (comments included: the
/// parser must skip them).
std::vector<std::string> RepoEventLines() {
  std::vector<std::string> lines;
  const std::filesystem::path dir(SWMON_TEST_DATA_DIR);
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() != ".events") continue;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  return lines;
}

std::vector<DataplaneEvent> ParsedRepoEvents() {
  std::vector<DataplaneEvent> events;
  for (const std::string& line : RepoEventLines()) {
    DataplaneEvent ev;
    std::string error;
    if (ParseEventLine(line, ev, &error)) events.push_back(ev);
  }
  return events;
}

Bytes Encode(const std::vector<DataplaneEvent>& events) {
  ByteWriter w;
  for (const DataplaneEvent& ev : events) EncodeTraceEvent(w, ev);
  return w.Take();
}

/// One random edit of `bytes`; record boundaries are not respected.
void Mutate(Rng& rng, Bytes& bytes) {
  if (bytes.empty()) {
    bytes.push_back(static_cast<std::uint8_t>(rng.Next()));
    return;
  }
  const std::size_t at = rng.NextBelow(bytes.size());
  switch (rng.NextBelow(7)) {
    case 0:  // flip one bit
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.NextBelow(8));
      break;
    case 1:  // overwrite a run with random bytes
      for (std::size_t i = at, end = std::min(bytes.size(), at + 1 +
                                              rng.NextBelow(16));
           i < end; ++i)
        bytes[i] = static_cast<std::uint8_t>(rng.Next());
      break;
    case 2:  // insert random bytes
      for (std::size_t k = 1 + rng.NextBelow(8); k > 0; --k)
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     static_cast<std::uint8_t>(rng.Next()));
      break;
    case 3:  // delete a run
      bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                  bytes.begin() + static_cast<std::ptrdiff_t>(std::min(
                                      bytes.size(), at + 1 +
                                                        rng.NextBelow(24))));
      break;
    case 4: {  // splice a copy of another stretch in
      const std::size_t from = rng.NextBelow(bytes.size());
      const std::size_t len =
          std::min<std::size_t>(bytes.size() - from, 1 + rng.NextBelow(96));
      const Bytes copy(bytes.begin() + static_cast<std::ptrdiff_t>(from),
                       bytes.begin() + static_cast<std::ptrdiff_t>(from + len));
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   copy.begin(), copy.end());
      break;
    }
    case 5:  // truncate
      bytes.resize(at);
      break;
    default:  // a plausible-looking byte where a type or mask byte may be
      bytes[at] = static_cast<std::uint8_t>(
          rng.NextBool(0.5) ? rng.NextBelow(4) : 0x1f + rng.NextBelow(2));
      break;
  }
}

struct Decoded {
  std::vector<DataplaneEvent> events;
  Result result = Result::kNeedMore;
  std::string error;
  std::size_t pending = 0;
};

Decoded DecodeWhole(const Bytes& bytes) {
  TraceEventDecoder dec;
  Decoded d;
  dec.Feed(bytes.data(), bytes.size());
  d.result = dec.DecodeAvailable(d.events);
  d.error = dec.error();
  d.pending = dec.pending_bytes();
  return d;
}

/// Feeds `bytes` in random-size chunks, draining each chunk with either
/// DecodeAvailable or a Next loop.
Decoded DecodeChunked(Rng& rng, const Bytes& bytes) {
  TraceEventDecoder dec;
  Decoded d;
  std::size_t off = 0;
  while (off < bytes.size() && d.result != Result::kCorrupt) {
    const std::size_t n =
        std::min<std::size_t>(bytes.size() - off, 1 + rng.NextBelow(200));
    dec.Feed(bytes.data() + off, n);
    off += n;
    if (rng.NextBool(0.5)) {
      d.result = dec.DecodeAvailable(d.events);
    } else {
      DataplaneEvent ev;
      while ((d.result = dec.Next(ev)) == Result::kEvent)
        d.events.push_back(ev);
    }
  }
  d.error = dec.error();
  d.pending = dec.pending_bytes();
  return d;
}

void ExpectSameDecode(const Decoded& a, const Decoded& b,
                      const std::string& context) {
  EXPECT_EQ(Encode(a.events), Encode(b.events)) << context;
  EXPECT_EQ(a.result, b.result) << context;
  EXPECT_EQ(a.error, b.error) << context;
  if (a.result != Result::kCorrupt) {
    EXPECT_EQ(a.pending, b.pending) << context;
  }
}

/// Decoded events re-encode to exactly the input prefix they consumed.
void ExpectReencodesToInput(const Decoded& d, const Bytes& input,
                            const std::string& context) {
  const Bytes reencoded = Encode(d.events);
  ASSERT_LE(reencoded.size(), input.size()) << context;
  EXPECT_TRUE(std::equal(reencoded.begin(), reencoded.end(), input.begin()))
      << context;
  if (d.result == Result::kNeedMore) {
    EXPECT_EQ(reencoded.size() + d.pending, input.size()) << context;
  }
}

/// A fresh mutated input: a seed stream with 0..4 edits.
Bytes MutatedInput(Rng& rng, const std::vector<Bytes>& seeds) {
  Bytes bytes = seeds[rng.NextBelow(seeds.size())];
  for (std::size_t k = rng.NextBelow(5); k > 0; --k) Mutate(rng, bytes);
  return bytes;
}

std::vector<Bytes> BinarySeeds() {
  Rng rng(0x5eed);
  std::vector<Bytes> seeds;
  seeds.push_back(Encode(PerfbenchShapedEvents(rng, 200)));
  seeds.push_back(Encode(PerfbenchShapedEvents(rng, 7)));
  seeds.push_back(Encode(ParsedRepoEvents()));
  return seeds;
}

constexpr std::uint64_t kSeed = 20161109;

TEST(IngestFuzz, SeedCorpusIsNonTrivial) {
  EXPECT_FALSE(RepoEventLines().empty()) << SWMON_TEST_DATA_DIR;
  EXPECT_FALSE(ParsedRepoEvents().empty());
  for (const Bytes& seed : BinarySeeds()) {
    const Decoded d = DecodeWhole(seed);
    EXPECT_EQ(d.result, Result::kNeedMore);
    EXPECT_EQ(d.pending, 0u);
    EXPECT_EQ(Encode(d.events), seed);
  }
}

TEST(IngestFuzz, ChunkedDecodeEqualsWholeDecodeAndReencodes) {
  Rng rng(kSeed);
  const std::vector<Bytes> seeds = BinarySeeds();
  for (int iter = 0; iter < 5000; ++iter) {
    const Bytes input = MutatedInput(rng, seeds);
    const std::string context = "iteration " + std::to_string(iter);
    const Decoded whole = DecodeWhole(input);
    ExpectReencodesToInput(whole, input, context);
    ExpectSameDecode(whole, DecodeChunked(rng, input), context);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(IngestFuzz, RandomBytesNeverCrashTheDecoder) {
  Rng rng(kSeed + 1);
  for (int iter = 0; iter < 5000; ++iter) {
    Bytes input(rng.NextBelow(512));
    for (auto& b : input) b = static_cast<std::uint8_t>(rng.Next());
    const std::string context = "iteration " + std::to_string(iter);
    const Decoded whole = DecodeWhole(input);
    ExpectReencodesToInput(whole, input, context);
    ExpectSameDecode(whole, DecodeChunked(rng, input), context);
    if (::testing::Test::HasFailure()) break;
  }
}

const char* TypeName(DataplaneEventType type) {
  switch (type) {
    case DataplaneEventType::kArrival:
      return "arrival";
    case DataplaneEventType::kEgress:
      return "egress";
    case DataplaneEventType::kLinkStatus:
      return "link";
  }
  return "?";
}

/// The text-protocol line ParseEventLine reads back as `ev`.
std::string FormatEventLine(const DataplaneEvent& ev) {
  const auto time_ns = static_cast<std::uint64_t>(ev.time.nanos());
  std::string line =
      std::string(TypeName(ev.type)) + " " + std::to_string(time_ns);
  if (ev.packet_bytes) line += " bytes=" + std::to_string(ev.packet_bytes);
  for (std::size_t i = 0; i < kNumFieldIds; ++i) {
    const auto id = static_cast<FieldId>(i);
    if (ev.fields.Has(id))
      line += std::string(" ") + FieldName(id) + "=" +
              std::to_string(ev.fields.GetUnchecked(id));
  }
  return line;
}

TEST(IngestFuzz, MutatedTextLinesParseOrFailCleanlyAndRoundTrip) {
  Rng rng(kSeed + 2);
  std::vector<std::string> seeds = RepoEventLines();
  for (const DataplaneEvent& ev : PerfbenchShapedEvents(rng, 50))
    seeds.push_back(FormatEventLine(ev));
  const char* words[] = {"arrival", "egress", "link",  "bytes=", "ip_src=",
                         "0x",      "=",      "#",     " ",      "\t",
                         "-1",      "0xffffffffffffffffff", "l4_dst=80"};
  for (int iter = 0; iter < 20000; ++iter) {
    std::string line = seeds[rng.NextBelow(seeds.size())];
    for (std::size_t k = rng.NextBelow(4); k > 0; --k) {
      const std::size_t at = line.empty() ? 0 : rng.NextBelow(line.size());
      switch (rng.NextBelow(4)) {
        case 0:
          if (!line.empty())
            line[at] = static_cast<char>(rng.Next());
          break;
        case 1:
          line.insert(at, words[rng.NextBelow(std::size(words))]);
          break;
        case 2:
          line.erase(at, 1 + rng.NextBelow(8));
          break;
        default:
          line.resize(at);
          break;
      }
    }
    DataplaneEvent ev;
    std::string error;
    if (!ParseEventLine(line, ev, &error)) continue;
    EXPECT_TRUE(error.empty()) << line;
    DataplaneEvent again;
    ASSERT_TRUE(ParseEventLine(FormatEventLine(ev), again, &error))
        << line << " -> " << FormatEventLine(ev) << ": " << error;
    EXPECT_EQ(Encode({again}), Encode({ev})) << line;
  }
}

// ------------------------------------------------- the socket reader

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `wire` in random-size pieces to a fresh SocketSource with a
/// random queue capacity of 1..8, drains it until `want` events (and, when
/// `bad`, one decode error) have arrived, then checks exactly that was
/// delivered without the queue ever exceeding its capacity.
void ExpectSocketDelivers(Rng& rng, const std::string& wire,
                          const std::vector<DataplaneEvent>& want, bool bad,
                          const std::string& context) {
  SocketSourceOptions opts;
  opts.tcp_enabled = true;
  opts.queue_capacity = 1 + rng.NextBelow(8);
  SocketSource src(opts);
  std::string error;
  ASSERT_TRUE(src.Start(&error)) << error;
  const int fd = ConnectLoopback(src.tcp_port());
  ASSERT_GE(fd, 0);
  Rng send_rng = rng.Fork();
  std::thread sender([&] {
    std::size_t off = 0;
    while (off < wire.size()) {
      const std::size_t n = std::min<std::size_t>(
          wire.size() - off, 1 + send_rng.NextBelow(1024));
      const ssize_t sent = ::send(fd, wire.data() + off, n, MSG_NOSIGNAL);
      if (sent <= 0) break;
      off += static_cast<std::size_t>(sent);
    }
    ::close(fd);
  });
  std::vector<DataplaneEvent> got;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((got.size() < want.size() || (bad && src.decode_errors() == 0)) &&
         std::chrono::steady_clock::now() < deadline) {
    // Both Poll paths: appending to a non-empty vector, and the swap into
    // an empty one.
    if (rng.NextBool(0.5)) {
      src.Poll(got);
    } else {
      std::vector<DataplaneEvent> round;
      src.Poll(round);
      got.insert(got.end(), round.begin(), round.end());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  sender.join();
  src.Stop();
  src.Poll(got);
  EXPECT_EQ(Encode(got), Encode(want)) << context;
  EXPECT_EQ(src.decode_errors(), bad ? 1u : 0u) << context;
  EXPECT_LE(src.queue_high_water(), opts.queue_capacity) << context;
}

TEST(IngestFuzz, SocketReaderDeliversExactlyTheWholeDecode) {
  Rng rng(kSeed + 3);
  const std::vector<Bytes> seeds = BinarySeeds();
  const char header[16] = {'S', 'W', 'M', 'T', 2};
  for (int iter = 0; iter < 100; ++iter) {
    const Bytes body = MutatedInput(rng, seeds);
    const Decoded want = DecodeWhole(body);
    const bool bad = want.result == Result::kCorrupt || want.pending > 0;
    const std::string wire =
        std::string(header, sizeof(header)) +
        std::string(body.begin(), body.end());
    ExpectSocketDelivers(rng, wire, want.events, bad,
                         "iteration " + std::to_string(iter));
    if (::testing::Test::HasFailure()) break;
  }
}

/// What the socket reader must deliver for a text-protocol stream: every
/// line up to the first malformed one, then the unterminated tail if the
/// stream ends without one. `*bad` is whether a decode error is counted.
std::vector<DataplaneEvent> ExpectedTextEvents(const std::string& text,
                                               bool* bad) {
  std::vector<DataplaneEvent> events;
  *bad = false;
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = text.find('\n', start);
    const std::string_view line(text.data() + start,
                                (nl == std::string::npos ? text.size() : nl) -
                                    start);
    DataplaneEvent ev;
    std::string error;
    if (ParseEventLine(line, ev, &error)) {
      events.push_back(ev);
    } else if (!error.empty()) {
      *bad = true;
      return events;
    }
    if (nl == std::string::npos) return events;
    start = nl + 1;
  }
}

TEST(IngestFuzz, SocketReaderTextModeMatchesLineByLineParse) {
  Rng rng(kSeed + 4);
  std::vector<Bytes> seeds;
  {
    std::string text;
    for (const DataplaneEvent& ev : PerfbenchShapedEvents(rng, 60))
      text += FormatEventLine(ev) + "\n";
    seeds.emplace_back(text.begin(), text.end());
    text.clear();
    for (const std::string& line : RepoEventLines()) text += line + "\n";
    seeds.emplace_back(text.begin(), text.end());
  }
  for (int iter = 0; iter < 60; ++iter) {
    const Bytes body = MutatedInput(rng, seeds);
    // A leading newline keeps a mutated first byte from looking like the
    // start of a binary header; the blank line it adds is skipped.
    const std::string text = "\n" + std::string(body.begin(), body.end());
    bool bad = false;
    const std::vector<DataplaneEvent> want = ExpectedTextEvents(text, &bad);
    ExpectSocketDelivers(rng, text, want, bad,
                         "iteration " + std::to_string(iter));
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace swmon
