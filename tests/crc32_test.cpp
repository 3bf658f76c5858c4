// Unit tests for CRC-32 (known-answer vectors + properties).
#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace accelring::util {
namespace {

TEST(Crc32, KnownAnswerCheckString) {
  // The canonical CRC-32 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, SingleBitChangeChangesCrc) {
  std::vector<std::byte> a(64, std::byte{0});
  std::vector<std::byte> b = a;
  b[17] = std::byte{0x01};
  EXPECT_NE(crc32(a), crc32(b));
}

TEST(Crc32, OrderSensitive) {
  EXPECT_NE(crc32(as_bytes("ab")), crc32(as_bytes("ba")));
}

/// Byte-at-a-time reference: the textbook reflected table loop.
uint32_t bytewise_crc32(std::span<const std::byte> data) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = 0xFFFFFFFFu;
  for (std::byte b : data) {
    c = table[(c ^ static_cast<uint32_t>(b)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// The 8-byte step reads unaligned words: every length (all tail sizes, and
// every count of whole steps up to 256) at every start alignment must agree
// with the byte-at-a-time definition.
TEST(Crc32, SlicingMatchesBytewiseForEveryLengthAndOffset) {
  Rng rng(17);
  std::vector<std::byte> buf(2048 + 8);
  for (auto& b : buf) b = static_cast<std::byte>(rng.below(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 2048; ++len) {
      const std::span<const std::byte> s(buf.data() + offset, len);
      ASSERT_EQ(crc32(s), bytewise_crc32(s))
          << "offset " << offset << " len " << len;
    }
  }
}

}  // namespace
}  // namespace accelring::util
