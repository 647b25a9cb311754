// CRC-32 (IEEE 802.3, the zlib polynomial) over arbitrary bytes.
//
// One implementation for every checksum in the tree: write-ahead-journal
// records (src/durability) and wire frames (src/net) store the CRC of their
// payload, so a torn or bit-rotted frame is detected by checksum mismatch
// rather than parsed as garbage; surrogate tables (src/surrogate) carry the
// CRC of their payload in the header. Slicing-by-8 over eight 256-entry
// tables, dependency-free, byte-order independent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hypertune {

/// CRC-32 of `size` bytes starting at `data` (initial value 0).
std::uint32_t Crc32(const void* data, std::size_t size);

inline std::uint32_t Crc32(std::string_view bytes) {
  return Crc32(bytes.data(), bytes.size());
}

}  // namespace hypertune
