#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace accelring::util {
namespace {

// The 8-byte step folds the CRC into a word loaded in native byte order.
static_assert(std::endian::native == std::endian::little,
              "crc32's slicing-by-8 step assumes a little-endian host");

using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

uint32_t crc32(std::span<const std::byte> data) {
  uint32_t c = 0xFFFFFFFFu;
  const std::byte* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ static_cast<uint32_t>(*p)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace accelring::util
