#include "netsim/trace_io.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/byte_io.hpp"

namespace swmon {
namespace {

constexpr char kMagic[4] = {'S', 'W', 'M', 'T'};
// v1 wrote raw host-endian scalars (fwrite of each field); v2 routes every
// scalar through the byte_io little-endian writers so traces are portable
// across machines. The field-by-field layout is identical, so on a
// little-endian host a v1 file decodes with the v2 path.
constexpr std::uint32_t kVersion = 2;

/// Fixed-size prefix of one encoded event: type + time + packet_bytes +
/// presence mask. The variable tail is 8 bytes per set presence bit.
constexpr std::size_t kEventFixedBytes = 1 + 8 + 4 + 8;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

bool SetError(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

std::uint32_t LoadU32LE(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native != std::endian::little)
    v = __builtin_bswap32(v);
  return v;
}

std::uint64_t LoadU64LE(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native != std::endian::little)
    v = __builtin_bswap64(v);
  return v;
}

/// Decodes the event at the front of `in` into `out`, which must hold a
/// value-initialized DataplaneEvent: only the present fields are written.
/// On kEvent `*used` is the record's length. Returns kEvent/kNeedMore/
/// kCorrupt exactly like the incremental decoder — LoadTrace treats
/// kNeedMore as truncation.
TraceEventDecoder::Result DecodeOneEvent(std::span<const std::uint8_t> in,
                                         DataplaneEvent& out,
                                         std::size_t* used,
                                         std::string* error) {
  using Result = TraceEventDecoder::Result;
  if (in.size() < kEventFixedBytes) return Result::kNeedMore;
  const std::uint8_t* p = in.data();
  const std::uint8_t type = p[0];
  const std::uint64_t presence = LoadU64LE(p + 13);
  if (type > static_cast<std::uint8_t>(DataplaneEventType::kLinkStatus)) {
    SetError(error, "corrupt event type");
    return Result::kCorrupt;
  }
  if (presence >> kNumFieldIds) {
    SetError(error, "corrupt presence mask");
    return Result::kCorrupt;
  }
  const std::size_t size =
      kEventFixedBytes + 8 * static_cast<std::size_t>(std::popcount(presence));
  if (in.size() < size) return Result::kNeedMore;
  out.type = static_cast<DataplaneEventType>(type);
  out.time = SimTime::FromNanos(static_cast<std::int64_t>(LoadU64LE(p + 1)));
  out.packet_bytes = LoadU32LE(p + 9);
  // Values follow in ascending FieldId order: walk the set bits only.
  const std::uint8_t* value = p + kEventFixedBytes;
  for (std::uint64_t bits = presence; bits != 0; bits &= bits - 1) {
    out.fields.Set(static_cast<FieldId>(std::countr_zero(bits)),
                   LoadU64LE(value));
    value += 8;
  }
  *used = size;
  return Result::kEvent;
}

void WriteHeader(ByteWriter& w, std::uint64_t count) {
  w.WriteBytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), 4));
  w.WriteU32LE(kVersion);
  w.WriteU64LE(count);
}

}  // namespace

void EncodeTraceEvent(ByteWriter& w, const DataplaneEvent& ev) {
  w.WriteU8(static_cast<std::uint8_t>(ev.type));
  w.WriteU64LE(static_cast<std::uint64_t>(ev.time.nanos()));
  w.WriteU32LE(ev.packet_bytes);
  const std::uint64_t presence = ev.fields.presence_mask();
  w.WriteU64LE(presence);
  for (std::uint64_t bits = presence; bits != 0; bits &= bits - 1)
    w.WriteU64LE(
        ev.fields.GetUnchecked(static_cast<FieldId>(std::countr_zero(bits))));
}

// --------------------------------------------------- TraceEventDecoder

void TraceEventDecoder::Feed(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

TraceEventDecoder::Result TraceEventDecoder::Next(DataplaneEvent& out) {
  if (corrupt_) return Result::kCorrupt;
  out = DataplaneEvent{};
  std::size_t used = 0;
  const Result res = DecodeOneEvent(
      std::span<const std::uint8_t>(buf_.data() + pos_, buf_.size() - pos_),
      out, &used, &error_);
  if (res == Result::kCorrupt) {
    corrupt_ = true;
    return res;
  }
  if (res == Result::kEvent) {
    pos_ += used;
    ++events_decoded_;
    // Drop the consumed prefix once it dominates the buffer, so a
    // long-lived stream never accretes decoded bytes.
    if (pos_ > (1u << 16) && pos_ * 2 > buf_.size()) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
      pos_ = 0;
    }
  }
  return res;
}

TraceEventDecoder::Result TraceEventDecoder::DecodeAvailable(
    std::vector<DataplaneEvent>& out) {
  if (corrupt_) return Result::kCorrupt;
  Result res = Result::kNeedMore;
  for (;;) {
    DataplaneEvent& slot = out.emplace_back();
    std::size_t used = 0;
    res = DecodeOneEvent(
        std::span<const std::uint8_t>(buf_.data() + pos_, buf_.size() - pos_),
        slot, &used, &error_);
    if (res != Result::kEvent) {
      out.pop_back();
      break;
    }
    pos_ += used;
    ++events_decoded_;
  }
  if (res == Result::kCorrupt) corrupt_ = true;
  // At most one partial record (< 320 bytes) is left: compact now, so the
  // next Feed appends to an almost empty buffer.
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
  pos_ = 0;
  return res;
}

// ---------------------------------------------------- TraceFileWriter

bool TraceFileWriter::Open(const std::string& path, std::string* error) {
  Close();
  file_ = std::fopen(path.c_str(), "wb");
  if (!file_) return SetError(error, "cannot open " + path + " for writing");
  count_ = 0;
  ByteWriter header;
  WriteHeader(header, 0);
  if (std::fwrite(header.bytes().data(), 1, header.size(), file_) !=
      header.size()) {
    Close();
    return SetError(error, "header write failed");
  }
  std::fflush(file_);
  return true;
}

void TraceFileWriter::Append(const DataplaneEvent& ev) {
  EncodeTraceEvent(pending_, ev);
  ++count_;
}

bool TraceFileWriter::Flush(std::string* error) {
  if (!file_) return SetError(error, "writer is closed");
  const auto& buf = pending_.bytes();
  if (!buf.empty() &&
      std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size())
    return SetError(error, "trace write failed");
  pending_.Take();  // reset the pending buffer
  // Patch the header count so the file decodes as a complete trace at
  // every flush point.
  if (std::fseek(file_, 8, SEEK_SET) != 0)
    return SetError(error, "seek failed");
  ByteWriter count;
  count.WriteU64LE(count_);
  if (std::fwrite(count.bytes().data(), 1, 8, file_) != 8)
    return SetError(error, "count patch failed");
  if (std::fseek(file_, 0, SEEK_END) != 0)
    return SetError(error, "seek failed");
  std::fflush(file_);
  return true;
}

void TraceFileWriter::Close() {
  if (!file_) return;
  Flush();
  std::fclose(file_);
  file_ = nullptr;
}

// ------------------------------------------------- whole-file save/load

bool SaveTrace(const TraceRecorder& trace, const std::string& path,
               std::string* error) {
  ByteWriter w;
  WriteHeader(w, static_cast<std::uint64_t>(trace.size()));
  for (const DataplaneEvent& ev : trace.events()) EncodeTraceEvent(w, ev);

  File f(std::fopen(path.c_str(), "wb"));
  if (!f) return SetError(error, "cannot open " + path + " for writing");
  const auto& buf = w.bytes();
  if (std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size())
    return SetError(error, "trace write failed");
  return true;
}

bool LoadTrace(const std::string& path, TraceRecorder& out,
               std::string* error) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) return SetError(error, "cannot open " + path);
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f.get())) > 0)
    buf.insert(buf.end(), chunk, chunk + n);

  ByteReader r(buf);
  char magic[4];
  r.ReadBytes(reinterpret_cast<std::uint8_t*>(magic), 4);
  if (!r.ok() || std::memcmp(magic, kMagic, 4) != 0)
    return SetError(error, path + " is not a swmon trace");
  const std::uint32_t version = r.ReadU32LE();
  if (!r.ok() || version == 0 || version > kVersion)
    return SetError(error, "unsupported trace version");
  if (version == 1 && std::endian::native != std::endian::little) {
    // v1 scalars are host-endian from the writing machine; on a big-endian
    // reader they cannot be decoded reliably. Re-record or convert on a
    // little-endian host (which reads them via the v2 path below).
    return SetError(error,
                    "trace version 1 is host-endian and this host is "
                    "big-endian; re-save as version 2");
  }
  const std::uint64_t count = r.ReadU64LE();
  if (!r.ok()) return SetError(error, "truncated header");

  std::size_t pos = r.position();
  for (std::uint64_t i = 0; i < count; ++i) {
    DataplaneEvent ev;
    std::size_t used = 0;
    std::string decode_error;
    switch (DecodeOneEvent(
        std::span<const std::uint8_t>(buf.data() + pos, buf.size() - pos), ev,
        &used, &decode_error)) {
      case TraceEventDecoder::Result::kEvent:
        out.OnDataplaneEvent(ev);
        pos += used;
        break;
      case TraceEventDecoder::Result::kNeedMore:
        return SetError(error, "truncated event");
      case TraceEventDecoder::Result::kCorrupt:
        return SetError(error, decode_error);
    }
  }
  return true;
}

}  // namespace swmon
