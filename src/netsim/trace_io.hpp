// Trace persistence: save/load recorded dataplane event streams.
//
// Enables the offline workflow the paper's provenance discussion gestures
// at (NetSight-style "postcards" analyzed after the fact): record a
// switch's event stream once, then run any property over it later —
// `examples/trace_replay` is the end-to-end tool.
//
// Format v2 (explicitly little-endian via common/byte_io, versioned —
// see docs/TRACE_FORMAT.md):
//   magic "SWMT" | u32 version | u64 event_count
//   per event: u8 type | u64 time_ns (two's-complement i64) |
//              u32 packet_bytes | u64 presence_mask |
//              u64 value per set bit (ascending FieldId)
// v1 files (raw host-endian scalars, same layout) are still readable on
// little-endian hosts; big-endian hosts get a clear error for v1.
//
// Live streams reuse the same per-event wire encoding:
//   * TraceEventDecoder decodes events incrementally from arbitrary byte
//     chunks — the daemon's trace-file tailer and socket ingestion source
//     (src/daemon/event_source) both sit on it, so `cat x.swmt | nc` into
//     swmond's socket just works.
//   * TraceFileWriter appends events to a growing v2 file, patching the
//     header count on every Flush so the file is loadable mid-growth.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/byte_io.hpp"
#include "netsim/trace.hpp"

namespace swmon {

/// 16-byte v2 file/stream header: magic, version, event count.
inline constexpr std::size_t kTraceHeaderBytes = 16;

/// Appends one event's v2 wire encoding to `w` (everything after the file
/// header — SaveTrace, TraceFileWriter, and socket clients all emit this).
void EncodeTraceEvent(ByteWriter& w, const DataplaneEvent& ev);

/// Incremental decoder for the v2 per-event wire encoding. Feed() byte
/// chunks of any size (a tailing read, a socket recv); Next() yields each
/// complete event as soon as its last byte has arrived. Header bytes are
/// the caller's concern — feed only the event stream.
class TraceEventDecoder {
 public:
  enum class Result : std::uint8_t {
    kEvent,     // `out` holds the next event
    kNeedMore,  // pending bytes are a proper prefix of an event
    kCorrupt,   // stream is invalid; error() says why. Terminal.
  };

  /// Appends raw bytes to the pending buffer.
  void Feed(const std::uint8_t* data, std::size_t n);

  /// Tries to decode one event from the pending bytes.
  Result Next(DataplaneEvent& out);

  /// Decodes every complete pending event, constructing each in place at
  /// the end of `out`. Returns kNeedMore once the pending bytes hold no
  /// further complete event, or kCorrupt (terminal) at the first invalid
  /// record; the events before it are appended either way.
  Result DecodeAvailable(std::vector<DataplaneEvent>& out);

  const std::string& error() const { return error_; }
  std::size_t pending_bytes() const { return buf_.size() - pos_; }
  std::uint64_t events_decoded() const { return events_decoded_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted lazily
  std::uint64_t events_decoded_ = 0;
  bool corrupt_ = false;
  std::string error_;
};

/// Streaming writer for a growing v2 trace file — the producer side of the
/// daemon's tailer source. Open() writes the header with count 0; Append()
/// buffers one event; Flush() writes buffered events and patches the header
/// count, so readers (LoadTrace or a tailing TraceEventDecoder) always see
/// a consistent prefix.
class TraceFileWriter {
 public:
  TraceFileWriter() = default;
  ~TraceFileWriter() { Close(); }
  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;

  bool Open(const std::string& path, std::string* error = nullptr);
  bool is_open() const { return file_ != nullptr; }
  void Append(const DataplaneEvent& ev);
  /// Writes buffered events + patched count to disk (fflush included).
  bool Flush(std::string* error = nullptr);
  /// Flush + close. Safe to call twice.
  void Close();
  std::uint64_t events_written() const { return count_; }

 private:
  std::FILE* file_ = nullptr;
  ByteWriter pending_;
  std::uint64_t count_ = 0;
};

/// Serializes the trace; returns false (and sets errno-ish message) on I/O
/// failure.
bool SaveTrace(const TraceRecorder& trace, const std::string& path,
               std::string* error = nullptr);

/// Loads a trace written by SaveTrace. Returns false on I/O error, bad
/// magic, unsupported version, or truncation.
bool LoadTrace(const std::string& path, TraceRecorder& out,
               std::string* error = nullptr);

}  // namespace swmon
