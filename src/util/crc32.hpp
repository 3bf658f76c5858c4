// CRC-32 (IEEE 802.3 polynomial, reflected).
//
// The system model assumes messages are not corrupted (§II), but the wire
// codecs still carry a checksum so the real UDP transport can discard
// truncated or mangled datagrams instead of feeding them to the protocol.
//
// Every sealed message is checksummed once by its sender and once by each
// receiver, so this function is on the per-message hot path of both the
// simulator and the UDP datapath. It is slicing-by-8 in portable C++: eight
// 256-entry tables built at compile time, where table k maps a byte to its
// CRC contribution k bytes further back in the stream. Each 8-byte step
// loads two 32-bit words, folds the running CRC into the first, and combines
// eight table lookups; the 0..7-byte tail runs the classic byte-at-a-time
// loop over table 0. Polynomial, initial value and final xor are those of
// the byte-at-a-time definition, so every checksum (wire messages, WAL
// records, checkpoints) is bit for bit the same.
#pragma once

#include <cstdint>
#include <span>

namespace accelring::util {

/// CRC-32 of `data` (initial value 0xFFFFFFFF, final xor, reflected poly).
[[nodiscard]] uint32_t crc32(std::span<const std::byte> data);

}  // namespace accelring::util
