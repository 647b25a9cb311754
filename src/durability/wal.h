// The write-ahead journal: an append-only log of scheduler-mutating events.
//
// File layout:
//
//   [8-byte magic "HTWAL001"]
//   [frame]*          frame = u32 LE payload length
//                           | u32 LE CRC-32 of the payload
//                           | payload bytes (a compact JSON event)
//
// The CRC frames are what make recovery safe: a crash mid-append leaves a
// torn tail (short header, short payload, or checksum mismatch), and the
// reader detects it and reports the last valid byte offset instead of
// parsing garbage. Recovery truncates the file there and appends onward —
// the contract tests/durability_test.cc pins down to the byte.
//
// Durability is tunable per deployment (SyncPolicy): fsync never (the OS
// page cache decides), every N frames (bounded loss window), or on every
// frame (no loss, one fsync per scheduler mutation). See
// bench/micro_durability.cc for what each costs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_fs.h"

namespace hypertune {

struct JournalReadResult;

/// When the journal writer fsyncs.
enum class SyncPolicy {
  /// Never fsync explicitly; a machine crash can lose buffered frames (a
  /// process crash cannot — frames are written straight to the fd).
  kNone,
  /// fsync every `sync_every` frames: bounded loss window, amortized cost.
  kEveryN,
  /// fsync after every frame: no loss window, one fsync per mutation.
  kAlways,
};

struct WalWriteOptions {
  SyncPolicy sync = SyncPolicy::kEveryN;
  /// Frames between fsyncs under SyncPolicy::kEveryN.
  std::size_t sync_every = 64;
  /// File-op seam (fault injection); null = FileOps::Real().
  FileOps* file_ops = nullptr;
};

/// What one TryAppend did. The distinction matters to the caller: a failed
/// *write* means the frame is not in the journal (buffer and re-append it
/// later), a failed *fsync* means the frame's bytes are appended but not
/// yet durable (never re-append — that would duplicate it on replay).
enum class AppendResult { kOk, kWriteFailed, kSyncFailed };

/// Append-only journal writer over a POSIX fd. Move-only; the destructor
/// best-effort-syncs (per policy) and closes.
///
/// Two API levels: Append/Sync throw CheckError on I/O failure (a journal
/// that silently drops events is worse than a dead server), while
/// TryAppend/TrySync report failure for callers with a degradation path —
/// DurableServer buffers records through an ENOSPC window and replays them
/// into the journal when space returns. A partially written frame leaves a
/// dirty tail; the next TryAppend truncates back to the last good byte
/// before writing, so a mid-frame failure can never strand later frames
/// behind garbage.
class JournalWriter {
 public:
  /// Creates a fresh journal (truncating any existing file) and writes the
  /// header. Throws CheckError on failure.
  static JournalWriter Create(const std::string& path,
                              WalWriteOptions options);
  /// Create, but reporting failure instead of throwing (the degraded-mode
  /// snapshot path must survive a full disk).
  static std::optional<JournalWriter> TryCreate(const std::string& path,
                                                WalWriteOptions options);
  /// Opens an existing journal for appending at `valid_bytes` (as reported
  /// by ReadJournal), truncating any torn tail past it first.
  static JournalWriter Append(const std::string& path,
                              WalWriteOptions options,
                              std::uint64_t valid_bytes);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Appends one CRC-framed payload and applies the sync policy. Throws
  /// CheckError on failure.
  void Append(std::string_view payload);

  /// Forces an fsync now (e.g. right before taking a snapshot). Throws
  /// CheckError on failure.
  void Sync();

  /// Non-throwing Append; see AppendResult for what each outcome obliges
  /// the caller to do.
  AppendResult TryAppend(std::string_view payload);

  /// Non-throwing Sync: true when the journal is durable up to its last
  /// appended frame.
  bool TrySync();

  std::size_t frames_written() const { return frames_written_; }
  /// errno of the last failed file op (0 when none failed yet).
  int last_errno() const { return last_errno_; }

 private:
  JournalWriter(int fd, WalWriteOptions options);

  /// Truncates a partially written frame back to the last good byte.
  bool RepairTail();

  int fd_ = -1;
  WalWriteOptions options_;
  FileOps* ops_ = nullptr;
  std::size_t frames_written_ = 0;
  std::size_t frames_since_sync_ = 0;
  /// Bytes known fully written (header + whole frames).
  std::uint64_t good_bytes_ = 0;
  /// True after a partial frame write; repaired before the next append.
  bool tail_dirty_ = false;
  int last_errno_ = 0;
  /// The frame being appended (header + payload), reused across appends.
  std::string frame_;
};

/// The payloads of one journal read, in append order: views into a single
/// buffer holding the whole file, so no record is copied. Move-only — a
/// moved vector keeps its heap buffer, so the views stay valid.
class JournalPayloads {
 public:
  using const_iterator = std::vector<std::string_view>::const_iterator;
  using iterator = const_iterator;
  using value_type = std::string_view;

  JournalPayloads() = default;
  JournalPayloads(JournalPayloads&&) noexcept = default;
  JournalPayloads& operator=(JournalPayloads&&) noexcept = default;
  JournalPayloads(const JournalPayloads&) = delete;
  JournalPayloads& operator=(const JournalPayloads&) = delete;

  const_iterator begin() const { return views_.begin(); }
  const_iterator end() const { return views_.end(); }
  std::size_t size() const { return views_.size(); }
  bool empty() const { return views_.empty(); }
  std::string_view operator[](std::size_t i) const { return views_[i]; }

  /// Payload-by-payload byte equality.
  friend bool operator==(const JournalPayloads& payloads,
                         const std::vector<std::string>& expected) {
    return std::equal(payloads.begin(), payloads.end(), expected.begin(),
                      expected.end());
  }

 private:
  friend JournalReadResult ReadJournal(const std::string& path);

  std::vector<char> bytes_;
  std::vector<std::string_view> views_;
};

/// What ReadJournal recovered from a journal file.
struct JournalReadResult {
  /// Every fully valid frame payload, in append order.
  JournalPayloads payloads;
  /// Byte offset just past the last valid frame (>= header size). The file
  /// is safe to truncate here and append onward.
  std::uint64_t valid_bytes = 0;
  /// True when bytes past valid_bytes were torn or checksum-corrupt (they
  /// are ignored, never parsed).
  bool truncated_tail = false;
};

/// Reads a journal (one ReadFileBytes), stopping at the first torn or
/// corrupt frame. Throws CheckError when the file is missing or its header
/// is not a journal's.
JournalReadResult ReadJournal(const std::string& path);

/// Reads a whole file with one read sized by fstat. Throws CheckError when
/// it cannot be opened or read. Every durable file — journal, snapshot,
/// study manifest and state — is read through this.
std::vector<char> ReadFileBytes(const std::string& path);

/// The 8-byte journal file magic ("HTWAL001").
std::string_view JournalMagic();

}  // namespace hypertune
