// Pluggable live event ingestion for swmond.
//
// The batch harness replays a finite, fully-materialized trace; a resident
// daemon ingests from wherever events happen to be appearing. Two sources:
//
//   * TraceTailer follows a growing v2 `.swmt` trace file
//     (docs/TRACE_FORMAT.md): it waits for the file to exist, validates the
//     header once, then decodes events incrementally as bytes are appended
//     (TraceFileWriter on the producer side keeps the file consistent at
//     every flush). The header's event count is deliberately ignored — a
//     growing file's count lags its bytes.
//
//   * SocketSource accepts localhost TCP and/or Unix-socket connections
//     carrying either (a) the binary trace stream — the 16-byte SWMT
//     header followed by wire-encoded events, so `cat trace.swmt | nc`
//     works unmodified — or (b) a newline-delimited text protocol
//     (`arrival <time_ns> [key=value]...`) for hand-driven testing.
//     Each connection's reader thread decodes a whole recv chunk into its
//     own batch and hands the batch to the queue under one lock; the
//     daemon's pump thread drains the queue via Poll(), which swaps
//     vectors rather than copying when the caller's is empty. The queue is
//     bounded: a producer faster than the monitors blocks its connection
//     (TCP backpressure) instead of growing daemon memory, and a chunk
//     that does not fit goes in slices, so the queue never holds more
//     than queue_capacity events. Events from concurrent connections
//     interleave at handoff (chunk or slice) granularity; each
//     connection's own order is kept.
//
// Both sources present one contract: Poll(out) appends any newly available
// events and returns false only when the source is permanently finished
// (closed, or corrupt input — see error()).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dataplane/switch.hpp"
#include "netsim/trace_io.hpp"

namespace swmon {

class EventSource {
 public:
  virtual ~EventSource() = default;
  /// Appends newly available events to `out` (never blocks for long).
  /// Returns false when the source is permanently done.
  virtual bool Poll(std::vector<DataplaneEvent>& out) = 0;
  virtual const std::string& name() const = 0;
  /// Empty while healthy; a diagnosis once Poll has returned false.
  virtual const std::string& error() const = 0;
  virtual std::uint64_t events_ingested() const = 0;
};

/// Parses one text-protocol line: `<type> <time_ns> [bytes=<n>]
/// [<field>=<value>]...`, type in {arrival, egress, link}; values unsigned
/// 64-bit, decimal or 0x-hex (a sign or an out-of-range value is an
/// error); field names as printed by FieldName(). Empty lines and
/// `#`-comments yield false with empty error.
bool ParseEventLine(std::string_view line, DataplaneEvent& out,
                    std::string* error);

class TraceTailer : public EventSource {
 public:
  explicit TraceTailer(std::string path);
  ~TraceTailer() override;

  bool Poll(std::vector<DataplaneEvent>& out) override;
  const std::string& name() const override { return name_; }
  const std::string& error() const override { return error_; }
  std::uint64_t events_ingested() const override {
    return decoder_.events_decoded();
  }
  /// Bytes of the file consumed so far (header included once read).
  std::uint64_t offset() const { return offset_; }

 private:
  bool ReadHeader();

  std::string path_;
  std::string name_;
  std::string error_;
  int fd_ = -1;
  bool header_ok_ = false;
  std::uint64_t offset_ = 0;
  TraceEventDecoder decoder_;
};

struct SocketSourceOptions {
  /// Listen on 127.0.0.1:tcp_port when tcp_enabled (0 = kernel-assigned;
  /// read back via tcp_port()).
  bool tcp_enabled = false;
  std::uint16_t tcp_port = 0;
  /// Listen on this Unix socket path when non-empty.
  std::string unix_path;
  /// Decoded events buffered between Poll()s before readers block (an
  /// exact bound: a reader hands over only what fits). Poll() hands the
  /// pump the whole queue, so this is also the largest round it sees; the
  /// default matches SwmondOptions::max_round_events. The queue and the
  /// buffer Poll() swaps in are each reserved at this size once, so
  /// ingest touches at most two such buffers (~2.6 MB each by default).
  std::size_t queue_capacity = 8192;
};

class SocketSource : public EventSource {
 public:
  explicit SocketSource(SocketSourceOptions options);
  ~SocketSource() override;

  bool Start(std::string* error = nullptr);
  void Stop();

  bool Poll(std::vector<DataplaneEvent>& out) override;
  const std::string& name() const override { return name_; }
  const std::string& error() const override { return error_; }
  std::uint64_t events_ingested() const override {
    return events_ingested_.load(std::memory_order_relaxed);
  }

  std::uint16_t tcp_port() const { return tcp_port_; }
  std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Connections dropped for protocol violations (bad header/corrupt
  /// stream/bad line); the stream keeps serving other clients.
  std::uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }
  /// Malformed records observed across all connections: corrupt binary
  /// events, bad text lines, oversized text lines, and streams that close
  /// mid-record (truncated binary tail / unterminated final line that
  /// fails to parse). Events decoded before the bad record are kept.
  std::uint64_t decode_errors() const {
    return decode_errors_.load(std::memory_order_relaxed);
  }
  /// Reader-to-queue handoffs, one per recv chunk that decoded events
  /// (more when backpressure splits a chunk): events_ingested() /
  /// handoffs() is the ingest batch size.
  std::uint64_t handoffs() const {
    return handoffs_.load(std::memory_order_relaxed);
  }
  /// Most events the queue has held at once; never above queue_capacity.
  std::uint64_t queue_high_water() const {
    return queue_high_water_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop(int listen_fd);
  void ReadConnection(int fd);
  /// Copies `batch` into the queue, in slices that fit, blocking while the
  /// queue is full (ingest backpressure); leaves `batch` empty. Returns
  /// false when the source is stopping.
  bool Handoff(std::vector<DataplaneEvent>& batch);

  SocketSourceOptions options_;
  std::string name_ = "socket";
  std::string error_;
  std::uint16_t tcp_port_ = 0;
  int tcp_listen_fd_ = -1;
  int unix_listen_fd_ = -1;
  /// Listener threads; joined first on Stop (closing the listen fds stops
  /// them spawning more connection threads).
  std::vector<std::thread> accept_threads_;
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::condition_variable space_cv_;
  std::vector<DataplaneEvent> queue_;        // guarded by mu_
  std::vector<int> connection_fds_;          // guarded by mu_
  std::vector<std::thread> reader_threads_;  // guarded by mu_

  std::atomic<std::uint64_t> events_ingested_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> decode_errors_{0};
  std::atomic<std::uint64_t> handoffs_{0};
  std::atomic<std::uint64_t> queue_high_water_{0};  // written under mu_
};

}  // namespace swmon
