#include "daemon/event_source.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cstring>

#include "common/logging.hpp"
#include "spl/spl.hpp"

namespace swmon {
namespace {

constexpr char kTraceMagic[4] = {'S', 'W', 'M', 'T'};

bool SetError(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

/// Decimal or 0x-hex u64. Signs, whitespace and out-of-range values are
/// rejected, not wrapped or saturated.
bool ParseU64(std::string_view text, std::uint64_t* out) {
  int base = 10;
  if (text.size() > 2 && text[0] == '0' &&
      (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  }
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out, base);
  return ec == std::errc() && ptr == end;
}

/// Validates a 16-byte SWMT stream/file header; on success the caller
/// starts feeding everything after it to a TraceEventDecoder.
bool CheckStreamHeader(const std::uint8_t* header, std::string* error) {
  if (std::memcmp(header, kTraceMagic, 4) != 0)
    return SetError(error, "stream is not a swmon trace");
  std::uint32_t version;
  std::memcpy(&version, header + 4, 4);  // LE file, LE hosts only ingest live
  if constexpr (std::endian::native != std::endian::little)
    version = __builtin_bswap32(version);
  if (version == 0 || version > 2)
    return SetError(error, "unsupported trace version");
  return true;
}

}  // namespace

bool ParseEventLine(std::string_view line, DataplaneEvent& out,
                    std::string* error) {
  if (error) error->clear();
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos])))
      ++pos;
    std::size_t end = pos;
    while (end < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[end])))
      ++end;
    if (end > pos) tokens.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  if (tokens.empty() || tokens[0][0] == '#') return false;  // blank/comment
  if (tokens.size() < 2)
    return SetError(error, "expected '<type> <time_ns> [field=value]...'");

  out = DataplaneEvent{};
  if (tokens[0] == "arrival") {
    out.type = DataplaneEventType::kArrival;
  } else if (tokens[0] == "egress") {
    out.type = DataplaneEventType::kEgress;
  } else if (tokens[0] == "link") {
    out.type = DataplaneEventType::kLinkStatus;
  } else {
    return SetError(error,
                    "unknown event type '" + std::string(tokens[0]) + "'");
  }
  std::uint64_t time_ns;
  if (!ParseU64(tokens[1], &time_ns))
    return SetError(error, "bad timestamp '" + std::string(tokens[1]) + "'");
  out.time = SimTime::FromNanos(static_cast<std::int64_t>(time_ns));

  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string_view tok = tokens[i];
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos)
      return SetError(error,
                      "expected key=value, got '" + std::string(tok) + "'");
    const std::string_view key = tok.substr(0, eq);
    std::uint64_t value;
    if (!ParseU64(tok.substr(eq + 1), &value))
      return SetError(error, "bad value in '" + std::string(tok) + "'");
    if (key == "bytes") {
      out.packet_bytes = static_cast<std::uint32_t>(value);
      continue;
    }
    const auto id = FieldIdByName(key);
    if (!id)
      return SetError(error, "unknown field '" + std::string(key) + "'");
    out.fields.Set(*id, value);
  }
  return true;
}

// -------------------------------------------------------- TraceTailer

TraceTailer::TraceTailer(std::string path)
    : path_(std::move(path)), name_("tail:" + path_) {}

TraceTailer::~TraceTailer() {
  if (fd_ >= 0) ::close(fd_);
}

bool TraceTailer::ReadHeader() {
  std::uint8_t header[kTraceHeaderBytes];
  const ssize_t r = ::pread(fd_, header, sizeof(header), 0);
  if (r < 0) {
    error_ = "read " + path_ + " failed: " + std::strerror(errno);
    return false;
  }
  if (static_cast<std::size_t>(r) < sizeof(header)) return true;  // wait
  if (!CheckStreamHeader(header, &error_)) return false;
  header_ok_ = true;
  offset_ = kTraceHeaderBytes;
  return true;
}

bool TraceTailer::Poll(std::vector<DataplaneEvent>& out) {
  if (!error_.empty()) return false;
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_RDONLY);
    if (fd_ < 0) return true;  // not created yet — keep waiting
  }
  if (!header_ok_) {
    if (!ReadHeader()) return false;
    if (!header_ok_) return true;
  }
  std::uint8_t chunk[1 << 16];
  ssize_t r;
  while ((r = ::pread(fd_, chunk, sizeof(chunk), offset_)) > 0) {
    decoder_.Feed(chunk, static_cast<std::size_t>(r));
    offset_ += static_cast<std::uint64_t>(r);
  }
  if (r < 0) {
    error_ = "read " + path_ + " failed: " + std::strerror(errno);
    return false;
  }
  if (decoder_.DecodeAvailable(out) == TraceEventDecoder::Result::kCorrupt) {
    error_ = path_ + ": " + decoder_.error();
    return false;
  }
  return true;
}

// ------------------------------------------------------- SocketSource

SocketSource::SocketSource(SocketSourceOptions options)
    : options_(std::move(options)) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  // Reserved up front, not grown by doubling: growth under mu_ copies the
  // queue and faults in fresh pages while the pump waits for the lock.
  queue_.reserve(options_.queue_capacity);
}

SocketSource::~SocketSource() { Stop(); }

bool SocketSource::Start(std::string* error) {
  auto fail = [&](const std::string& msg) {
    Stop();
    return SetError(error, msg + ": " + std::strerror(errno));
  };
  stopping_.store(false, std::memory_order_release);
  if (options_.tcp_enabled) {
    tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listen_fd_ < 0) return fail("socket");
    const int one = 1;
    ::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (::bind(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(tcp_listen_fd_, 16) < 0)
      return fail("bind/listen 127.0.0.1:" +
                  std::to_string(options_.tcp_port));
    socklen_t len = sizeof(addr);
    ::getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    tcp_port_ = ntohs(addr.sin_port);
    const int fd = tcp_listen_fd_;
    accept_threads_.emplace_back([this, fd] { AcceptLoop(fd); });
  }
  if (!options_.unix_path.empty()) {
    unix_listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_listen_fd_ < 0) return fail("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path))
      return SetError(error, "unix socket path too long");
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_path.c_str());  // stale socket from a prior run
    if (::bind(unix_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(unix_listen_fd_, 16) < 0)
      return fail("bind/listen " + options_.unix_path);
    const int fd = unix_listen_fd_;
    accept_threads_.emplace_back([this, fd] { AcceptLoop(fd); });
  }
  if (tcp_listen_fd_ < 0 && unix_listen_fd_ < 0)
    return SetError(error, "socket source has no listener configured");
  return true;
}

void SocketSource::Stop() {
  stopping_.store(true, std::memory_order_release);
  for (int* fd : {&tcp_listen_fd_, &unix_listen_fd_}) {
    if (*fd >= 0) {
      ::shutdown(*fd, SHUT_RDWR);
      ::close(*fd);
      *fd = -1;
    }
  }
  // Listeners first: once joined, no new reader threads can appear.
  for (auto& t : accept_threads_)
    if (t.joinable()) t.join();
  accept_threads_.clear();
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    readers.swap(reader_threads_);
  }
  space_cv_.notify_all();
  for (auto& t : readers)
    if (t.joinable()) t.join();
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void SocketSource::AcceptLoop(int listen_fd) {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire) || errno != EINTR) return;
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // One thread per connection: ingestion clients are few (a tap per
    // switch), and a blocked slow producer must not stall other clients.
    std::lock_guard<std::mutex> lock(mu_);
    connection_fds_.push_back(fd);
    reader_threads_.emplace_back([this, fd] { ReadConnection(fd); });
  }
}

bool SocketSource::Handoff(std::vector<DataplaneEvent>& batch) {
  std::size_t done = 0;
  while (done < batch.size()) {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [this] {
      return queue_.size() < options_.queue_capacity ||
             stopping_.load(std::memory_order_acquire);
    });
    if (stopping_.load(std::memory_order_acquire)) return false;
    // Hand over what fits: the queue never exceeds its capacity, so a
    // chunk larger than the free space goes in slices. Copied, not
    // swapped in: a swap would hand the reader the queue's buffer, and
    // every connection could then keep one as large as the whole queue.
    const std::size_t n = std::min(options_.queue_capacity - queue_.size(),
                                   batch.size() - done);
    queue_.insert(queue_.end(),
                  batch.begin() + static_cast<std::ptrdiff_t>(done),
                  batch.begin() + static_cast<std::ptrdiff_t>(done + n));
    done += n;
    handoffs_.fetch_add(1, std::memory_order_relaxed);
    if (queue_.size() > queue_high_water_.load(std::memory_order_relaxed))
      queue_high_water_.store(queue_.size(), std::memory_order_relaxed);
    events_ingested_.fetch_add(n, std::memory_order_relaxed);
  }
  batch.clear();
  return true;
}

void SocketSource::ReadConnection(int fd) {
  // A text line longer than this is not a protocol the daemon speaks —
  // cap it so a newline-less client cannot grow the buffer unboundedly.
  constexpr std::size_t kMaxTextLine = 1 << 16;

  // Sniff the first bytes: an SWMT header selects the binary trace
  // protocol, anything else is treated as the text line protocol.
  std::string pending;  // header bytes while sniffing; then text bytes
  TraceEventDecoder decoder;
  // Every event one recv chunk completes, decoded in place and handed to
  // the pump in one go; recycled from chunk to chunk.
  std::vector<DataplaneEvent> batch;
  enum class Mode { kUnknown, kBinary, kText } mode = Mode::kUnknown;
  bool drop = false;
  char chunk[1 << 16];
  ssize_t r;
  while (!drop && (r = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    const auto n = static_cast<std::size_t>(r);
    // A malformed record ends the connection once the events decoded
    // before it are handed over.
    std::string problem;
    if (mode == Mode::kBinary) {
      decoder.Feed(reinterpret_cast<const std::uint8_t*>(chunk), n);
    } else {
      pending.append(chunk, n);
    }
    if (mode == Mode::kUnknown) {
      if (pending.size() < 4) {
        if (std::memcmp(pending.data(), kTraceMagic, pending.size()) == 0)
          continue;  // may still become a binary header
        mode = Mode::kText;
      } else if (std::memcmp(pending.data(), kTraceMagic, 4) == 0) {
        if (pending.size() < kTraceHeaderBytes) continue;
        if (!CheckStreamHeader(
                reinterpret_cast<const std::uint8_t*>(pending.data()),
                &problem)) {
          SWMON_LOG_WARN("daemon", "socket: %s", problem.c_str());
          decode_errors_.fetch_add(1, std::memory_order_relaxed);
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        decoder.Feed(
            reinterpret_cast<const std::uint8_t*>(pending.data()) +
                kTraceHeaderBytes,
            pending.size() - kTraceHeaderBytes);
        pending.clear();
        mode = Mode::kBinary;
      } else {
        mode = Mode::kText;
      }
    }
    if (mode == Mode::kBinary) {
      if (decoder.DecodeAvailable(batch) ==
          TraceEventDecoder::Result::kCorrupt)
        problem = "corrupt event stream: " + decoder.error();
    } else {
      std::size_t start = 0;
      std::size_t nl;
      while ((nl = pending.find('\n', start)) != std::string::npos) {
        const std::string_view line(pending.data() + start, nl - start);
        start = nl + 1;
        std::string line_error;
        if (ParseEventLine(line, batch.emplace_back(), &line_error)) continue;
        batch.pop_back();
        if (!line_error.empty()) {
          // A malformed line poisons framing — drop the connection.
          problem = "bad event line: " + line_error;
          break;
        }
      }
      pending.erase(0, start);
      if (problem.empty() && pending.size() > kMaxTextLine)
        problem = "text line exceeds " + std::to_string(kMaxTextLine) +
                  " bytes";
    }
    if (!batch.empty() && !Handoff(batch)) drop = true;
    if (!problem.empty()) {
      SWMON_LOG_WARN("daemon", "socket: %s", problem.c_str());
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      drop = true;
    }
  }
  // Clean close with bytes still pending: either a final text line the
  // client forgot to newline-terminate (parse it — `echo -n | nc` works),
  // or a record the stream truncated mid-encoding (surface it instead of
  // silently desyncing).
  if (!drop && r == 0) {
    if (mode == Mode::kBinary) {
      if (decoder.pending_bytes() > 0) {
        SWMON_LOG_WARN("daemon",
                       "socket: stream closed mid-event (%zu bytes pending)",
                       decoder.pending_bytes());
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (!pending.empty()) {
      if (mode == Mode::kUnknown &&
          std::memcmp(pending.data(), kTraceMagic,
                      std::min<std::size_t>(pending.size(), 4)) == 0) {
        // 1..15 bytes that are a proper prefix of a binary header.
        SWMON_LOG_WARN("daemon", "socket: stream closed mid-header");
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::string line_error;
        if (ParseEventLine(pending, batch.emplace_back(), &line_error)) {
          Handoff(batch);
        } else if (!line_error.empty()) {
          SWMON_LOG_WARN("daemon", "socket: bad final event line: %s",
                         line_error.c_str());
          decode_errors_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(mu_);
  connection_fds_.erase(
      std::remove(connection_fds_.begin(), connection_fds_.end(), fd),
      connection_fds_.end());
}

bool SocketSource::Poll(std::vector<DataplaneEvent>& out) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return true;
    if (out.empty()) {
      // The pump's drained round buffer becomes the next queue; after
      // the first swap both buffers hold the full reservation.
      out.swap(queue_);
      queue_.reserve(options_.queue_capacity);
    } else {
      out.insert(out.end(), queue_.begin(), queue_.end());
      queue_.clear();
    }
  }
  space_cv_.notify_all();
  return true;
}

}  // namespace swmon
