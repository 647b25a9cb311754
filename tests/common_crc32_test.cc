#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/crc32.h"

namespace hypertune {
namespace {

/// The definition: one bit at a time, reflected polynomial 0xEDB88320.
std::uint32_t BitwiseCrc32(const unsigned char* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::array<unsigned char, 64 + 8> buffer{};
  std::uint32_t state = 12345;
  for (auto& byte : buffer) {
    state = state * 1103515245u + 12345u;
    byte = static_cast<unsigned char>(state >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const unsigned char* data = buffer.data() + offset;
      EXPECT_EQ(Crc32(data, length), BitwiseCrc32(data, length))
          << "offset " << offset << " length " << length;
    }
  }
}

}  // namespace
}  // namespace hypertune
