#include "durability/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/crc32.h"

namespace hypertune {

namespace {

constexpr char kMagic[8] = {'H', 'T', 'W', 'A', 'L', '0', '0', '1'};
constexpr std::size_t kFrameHeader = 8;  // u32 length + u32 crc

void PutU32(unsigned char* out, std::uint32_t value) {
  out[0] = static_cast<unsigned char>(value & 0xFF);
  out[1] = static_cast<unsigned char>((value >> 8) & 0xFF);
  out[2] = static_cast<unsigned char>((value >> 16) & 0xFF);
  out[3] = static_cast<unsigned char>((value >> 24) & 0xFF);
}

std::uint32_t GetU32(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

/// Writes all of `size` through `ops`; returns bytes written (< size on
/// failure, with errno set by the failing op).
std::size_t WriteSome(FileOps& ops, int fd, const void* data,
                      std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ops.Write(fd, bytes + written, size - written);
    if (n <= 0) return written;
    written += static_cast<std::size_t>(n);
  }
  return written;
}

}  // namespace

std::string_view JournalMagic() { return {kMagic, sizeof(kMagic)}; }

JournalWriter::JournalWriter(int fd, WalWriteOptions options)
    : fd_(fd), options_(options),
      ops_(options.file_ops != nullptr ? options.file_ops : &FileOps::Real()) {
  HT_CHECK(options_.sync != SyncPolicy::kEveryN || options_.sync_every > 0);
}

std::optional<JournalWriter> JournalWriter::TryCreate(
    const std::string& path, WalWriteOptions options) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return std::nullopt;
  JournalWriter writer(fd, options);
  if (WriteSome(*writer.ops_, fd, kMagic, sizeof(kMagic)) != sizeof(kMagic)) {
    // A truncated header is not a journal; remove the stump so recovery
    // never mistakes it for one.
    const int saved = errno;
    ::close(std::exchange(writer.fd_, -1));
    ::unlink(path.c_str());
    errno = saved;
    return std::nullopt;
  }
  writer.good_bytes_ = sizeof(kMagic);
  return writer;
}

JournalWriter JournalWriter::Create(const std::string& path,
                                    WalWriteOptions options) {
  auto writer = TryCreate(path, options);
  HT_CHECK_MSG(writer.has_value(), "cannot create journal '"
                                       << path << "': "
                                       << std::strerror(errno));
  return std::move(*writer);
}

JournalWriter JournalWriter::Append(const std::string& path,
                                    WalWriteOptions options,
                                    std::uint64_t valid_bytes) {
  HT_CHECK(valid_bytes >= sizeof(kMagic));
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  HT_CHECK_MSG(fd >= 0, "cannot open journal '" << path
                            << "': " << std::strerror(errno));
  JournalWriter writer(fd, options);
  // Drop any torn tail first: appending after garbage would strand every
  // subsequent frame behind an unreadable one.
  HT_CHECK_MSG(writer.ops_->Truncate(fd, static_cast<off_t>(valid_bytes)) == 0,
               "cannot truncate journal '" << path
                                           << "': " << std::strerror(errno));
  HT_CHECK_MSG(::lseek(fd, 0, SEEK_END) >= 0,
               "cannot seek journal '" << path
                                       << "': " << std::strerror(errno));
  writer.good_bytes_ = valid_bytes;
  return writer;
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      options_(other.options_),
      ops_(other.ops_),
      frames_written_(other.frames_written_),
      frames_since_sync_(other.frames_since_sync_),
      good_bytes_(other.good_bytes_),
      tail_dirty_(other.tail_dirty_),
      last_errno_(other.last_errno_),
      frame_(std::move(other.frame_)) {}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    options_ = other.options_;
    ops_ = other.ops_;
    frames_written_ = other.frames_written_;
    frames_since_sync_ = other.frames_since_sync_;
    good_bytes_ = other.good_bytes_;
    tail_dirty_ = other.tail_dirty_;
    last_errno_ = other.last_errno_;
    frame_ = std::move(other.frame_);
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  if (fd_ < 0) return;
  // Best-effort: a destructor cannot degrade or throw. Callers with a
  // durability contract (DurableServer) sync explicitly via TrySync and
  // route failures into degraded mode before ever reaching this.
  if (options_.sync != SyncPolicy::kNone) (void)TrySync();
  ::close(fd_);
}

void JournalWriter::Append(std::string_view payload) {
  HT_CHECK_MSG(TryAppend(payload) == AppendResult::kOk,
               "journal write failed: " << std::strerror(last_errno_));
}

void JournalWriter::Sync() {
  HT_CHECK_MSG(TrySync(),
               "journal fsync failed: " << std::strerror(last_errno_));
}

bool JournalWriter::RepairTail() {
  if (!tail_dirty_) return true;
  if (ops_->Truncate(fd_, static_cast<off_t>(good_bytes_)) != 0 ||
      ::lseek(fd_, 0, SEEK_END) < 0) {
    last_errno_ = errno;
    return false;
  }
  tail_dirty_ = false;
  return true;
}

AppendResult JournalWriter::TryAppend(std::string_view payload) {
  HT_CHECK(fd_ >= 0);
  if (!RepairTail()) return AppendResult::kWriteFailed;
  // One write per frame (header + payload) so a crash tears at most the
  // frame being appended, never an earlier one.
  frame_.resize(kFrameHeader + payload.size());
  auto* header = reinterpret_cast<unsigned char*>(frame_.data());
  PutU32(header, static_cast<std::uint32_t>(payload.size()));
  PutU32(header + 4, Crc32(payload));
  std::memcpy(frame_.data() + kFrameHeader, payload.data(), payload.size());
  const std::size_t written =
      WriteSome(*ops_, fd_, frame_.data(), frame_.size());
  if (written != frame_.size()) {
    last_errno_ = errno;
    tail_dirty_ = written > 0;
    return AppendResult::kWriteFailed;
  }
  good_bytes_ += frame_.size();
  ++frames_written_;
  switch (options_.sync) {
    case SyncPolicy::kNone:
      return AppendResult::kOk;
    case SyncPolicy::kEveryN:
      if (++frames_since_sync_ < options_.sync_every) return AppendResult::kOk;
      break;
    case SyncPolicy::kAlways:
      break;
  }
  return TrySync() ? AppendResult::kOk : AppendResult::kSyncFailed;
}

bool JournalWriter::TrySync() {
  HT_CHECK(fd_ >= 0);
  if (ops_->Fsync(fd_) != 0) {
    last_errno_ = errno;
    return false;
  }
  frames_since_sync_ = 0;
  return true;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  HT_CHECK_MSG(fd >= 0, "cannot read '" << path
                                        << "': " << std::strerror(errno));
  struct stat info {};
  std::vector<char> bytes;
  bool ok = ::fstat(fd, &info) == 0;
  if (ok) {
    bytes.resize(static_cast<std::size_t>(info.st_size));
    std::size_t offset = 0;
    while (ok && offset < bytes.size()) {
      const ssize_t n =
          ::read(fd, bytes.data() + offset, bytes.size() - offset);
      if (n < 0 && errno == EINTR) continue;
      ok = n > 0;  // 0: the file shrank under us
      if (ok) offset += static_cast<std::size_t>(n);
    }
  }
  const int saved = errno;
  ::close(fd);
  HT_CHECK_MSG(ok, "cannot read '" << path << "': " << std::strerror(saved));
  return bytes;
}

JournalReadResult ReadJournal(const std::string& path) {
  JournalReadResult result;
  std::vector<char>& bytes = result.payloads.bytes_;
  bytes = ReadFileBytes(path);
  HT_CHECK_MSG(bytes.size() >= sizeof(kMagic) &&
                   std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0,
               "'" << path << "' is not a write-ahead journal");

  std::size_t offset = sizeof(kMagic);
  result.valid_bytes = offset;
  while (offset < bytes.size()) {
    if (bytes.size() - offset < kFrameHeader) break;  // torn frame header
    const auto* frame =
        reinterpret_cast<const unsigned char*>(bytes.data() + offset);
    const std::uint32_t length = GetU32(frame);
    const std::uint32_t crc = GetU32(frame + 4);
    if (bytes.size() - offset - kFrameHeader < length) break;  // torn payload
    const std::string_view payload(bytes.data() + offset + kFrameHeader,
                                   length);
    if (Crc32(payload) != crc) break;  // bit rot or torn overwrite
    result.payloads.views_.push_back(payload);
    offset += kFrameHeader + length;
    result.valid_bytes = offset;
  }
  result.truncated_tail = result.valid_bytes < bytes.size();
  return result;
}

}  // namespace hypertune
