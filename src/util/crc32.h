// CRC-32 (IEEE 802.3 polynomial) for datagram integrity checks.
//
// UDP's 16-bit checksum was considered too weak for multi-megabyte striped
// transfers; every Swift datagram carries a CRC-32 over its payload so a
// corrupted packet is treated exactly like a lost one (retransmitted).
//
// Reflected polynomial 0xEDB88320, init and final XOR 0xFFFFFFFF (the zlib
// crc32 value). Runs of >= 64 bytes fold with PCLMULQDQ on x86-64 hosts
// that have it; everything else goes through slice-by-8.

#ifndef SWIFT_SRC_UTIL_CRC32_H_
#define SWIFT_SRC_UTIL_CRC32_H_

#include <cstdint>
#include <span>

namespace swift {

// One-shot CRC of a buffer.
uint32_t Crc32(std::span<const uint8_t> data);

// Incremental interface: crc = Crc32Update(crc, chunk) starting from
// Crc32Init(), finished with Crc32Final().
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data);
uint32_t Crc32Final(uint32_t state);

// Test hook: force the portable kernel (compare SIMD vs portable output).
// Returns the previous setting. Both kernels compute the same value, so
// flipping it under concurrent CRCs changes speed only.
bool SetCrc32SimdEnabled(bool enabled);
// Which kernel Crc32Update currently dispatches to, for bench labels.
const char* Crc32KernelName();

}  // namespace swift

#endif  // SWIFT_SRC_UTIL_CRC32_H_
