// Binary wire framing for the lease protocol (DESIGN.md §8).
//
// Every frame on a binary-transport connection is
//
//   [16-byte header, little-endian]
//     u32 magic    "HTNP" (0x504E5448)
//     u16 version  kWireVersion; decoders reject anything else
//     u16 type     WireType — which packed payload struct follows
//     u32 length   payload byte count (<= kMaxFramePayload)
//     u32 crc      CRC-32 (IEEE, the WAL polynomial) of the payload bytes
//   [length payload bytes]
//
// in the spirit of the write-ahead journal's frames (src/durability/wal.h):
// a torn or bit-rotted frame is detected by header validation + checksum
// mismatch, never parsed. The header is fixed-layout so a reader can frame
// the stream before it understands any payload; the payload is a packed
// little-endian struct per WireType (src/net/codec.h).
//
// FrameDecoder is incremental: feed it whatever bytes the socket produced,
// pop complete frames. It distinguishes "need more bytes" from the five
// hard error states the malformed-frame tests pin down: bad magic, wrong
// version, oversized length, CRC mismatch, and a tail truncated mid-frame
// (reported only when the caller signals EOF). After a bad-CRC frame the
// stream is still framed (the header told us the length), so the decoder
// skips the payload and keeps going; bad magic/version/length desync the
// stream and poison the decoder — the connection must be closed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace hypertune {

/// First four bytes of every binary frame: "HTNP" on the wire.
inline constexpr std::uint32_t kFrameMagic = 0x504E5448;  // 'H''T''N''P' LE
/// Current wire schema version. Bump on any incompatible change to the
/// header or to a packed payload struct (versioning rules: DESIGN.md §8).
inline constexpr std::uint16_t kWireVersion = 1;
/// Hard upper bound on a payload; larger lengths are hostile or corrupt
/// (the biggest legitimate frame — a kMaxBatch jobs grant — is far below).
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;
/// Header byte count: magic + version + type + length + crc.
inline constexpr std::size_t kFrameHeaderSize = 16;

/// Frame type ids. Requests (worker -> server) are < 16, replies >= 16.
/// Values are wire contract: never renumber, only append.
enum class WireType : std::uint16_t {
  kRequestJob = 1,
  kRequestJobs = 2,
  kHeartbeat = 3,
  kReport = 4,
  // Multi-tenant vocabulary (appended; see DESIGN.md §8 + §11). The
  // study-scoped lease requests are the base payloads plus a trailing study
  // id — separate types rather than optional fields, because the codec is
  // strict both ways and the original payload structs are frozen.
  kCreateStudy = 5,
  kSuspendStudy = 6,
  kResumeStudy = 7,
  kDeleteStudy = 8,
  kListStudies = 9,
  kRequestJobStudy = 10,
  kRequestJobsStudy = 11,
  kHeartbeatStudy = 12,
  kReportStudy = 13,

  kJob = 16,
  kJobs = 17,
  kNoJob = 18,
  kAck = 19,
  kLeaseLost = 20,
  kError = 21,
  // Multi-tenant replies: the list_studies table, and grant replies whose
  // entries name the study they came from (the "*" fair-allocation path —
  // a report must know where to route back).
  kStudies = 22,
  kJobStudy = 23,
  kJobsStudy = 24,
  // A no_job carrying overload/degraded flags ("shed":true when the loop
  // is behind schedule, "degraded":true when the journal is unwritable).
  // Appended type, not new fields on kNoJob — that payload is frozen.
  kNoJobFlagged = 25,
};

/// Little-endian byte packer for payload structs. Appends to an owned
/// buffer; strings are u16/u32 length-prefixed (no terminators).
class WireWriter {
 public:
  void U8(std::uint8_t value);
  void U16(std::uint16_t value);
  void U32(std::uint32_t value);
  void U64(std::uint64_t value);
  void I64(std::int64_t value) { U64(static_cast<std::uint64_t>(value)); }
  void I32(std::int32_t value) { U32(static_cast<std::uint32_t>(value)); }
  /// IEEE-754 bit pattern, little-endian — doubles round-trip exactly.
  void F64(double value);
  /// u16 length + bytes (names, short strings).
  void ShortString(std::string_view value);
  /// u32 length + bytes (error messages, arbitrary text).
  void String(std::string_view value);

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Little-endian reader over a payload. Throws CheckError on underrun or
/// malformed length prefixes — decode errors, not crashes.
class WireReader {
 public:
  explicit WireReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  double F64();
  std::string ShortString();
  std::string String();

  bool AtEnd() const { return offset_ == bytes_.size(); }
  /// Throws CheckError unless every payload byte was consumed — a payload
  /// with trailing garbage is malformed, not ignorable.
  void ExpectEnd() const;

 private:
  std::string_view Take(std::size_t count);

  std::string_view bytes_;
  std::size_t offset_ = 0;
};

/// One complete, validated frame.
struct WireFrame {
  WireType type = WireType::kError;
  std::string payload;
};

/// Frames `payload` with the standard header (magic, version, type, length,
/// CRC-32 of payload).
std::string EncodeFrame(WireType type, std::string_view payload);

/// Why a FrameDecoder rejected input. Mirrors the malformed-frame satellite:
/// each kind is accounted separately by NetServer.
enum class FrameError {
  kNone,
  kBadMagic,
  kBadVersion,
  kOversized,
  kBadCrc,
  /// EOF landed mid-frame (set by Finish(), not by Feed()).
  kTruncated,
};

const char* FrameErrorName(FrameError error);

/// Incremental frame decoder over a byte stream.
///
///   decoder.Feed(bytes_from_socket);
///   while (auto frame = decoder.Next()) { ...handle... }
///   if (decoder.error() != FrameError::kNone) { ...account, maybe close... }
///
/// kBadCrc is recoverable: the frame is dropped, error() latches the kind
/// for the caller to account (and reset with ClearError()), and decoding
/// continues at the next frame. kBadMagic / kBadVersion / kOversized poison
/// the decoder — the stream cannot be re-framed — and Next() returns
/// nothing forever after.
class FrameDecoder {
 public:
  void Feed(std::string_view bytes);

  /// Pops the next complete valid frame, or nullopt when more bytes are
  /// needed (or the decoder is poisoned / a recoverable error is pending).
  std::optional<WireFrame> Next();

  /// Signals EOF: any buffered partial frame becomes kTruncated.
  void Finish();

  FrameError error() const { return error_; }
  /// True when the stream is beyond recovery (close the connection).
  bool poisoned() const { return poisoned_; }
  /// Acknowledges a recoverable (kBadCrc) error so Next() resumes.
  void ClearError();

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
  FrameError error_ = FrameError::kNone;
  bool poisoned_ = false;
};

}  // namespace hypertune
