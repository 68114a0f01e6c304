#include "src/util/crc32.h"

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#define SWIFT_CRC_X86 1
#endif

namespace swift {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // reflected IEEE 802.3

// kTables[0] is the Sarwate byte table; kTables[k][b] advances the CRC of
// byte b followed by k zero bytes, so eight lookups retire eight bytes.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr SliceTables BuildTables() {
  SliceTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? (c >> 1) ^ kPolynomial : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr SliceTables kTables = BuildTables();

uint32_t UpdateBytewise(uint32_t crc, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    crc = kTables[0][(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

// Slice-by-8: the portable kernel, and the tail of the PCLMUL one. The
// eight-byte load assumes little-endian lanes; big-endian hosts stay
// byte-wise.
uint32_t UpdatePortable(uint32_t crc, const uint8_t* p, size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      const uint32_t lo = static_cast<uint32_t>(word) ^ crc;
      const uint32_t hi = static_cast<uint32_t>(word >> 32);
      crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
  }
  return UpdateBytewise(crc, p, n);
}

#ifdef SWIFT_CRC_X86

__m128i Load128(const uint8_t* p) { return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)); }

// Carries lane x forward by the distance k encodes and adds the next block.
__attribute__((target("pclmul"))) __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)), next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009), in the bit-reflected
// domain of 0xEDB88320 with the paper's fold and Barrett constants — the
// same ones Linux crc32-pclmul and zlib's crc32_simd use. Four 128-bit
// lanes fold 64 bytes per round, collapse to one lane, fold any remaining
// 16-byte blocks, then reduce 128 -> 64 -> 32 bits. n >= 64, n % 16 == 0.
__attribute__((target("pclmul,sse4.1"))) uint32_t UpdatePclmul(uint32_t crc,
                                                               const uint8_t* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }

  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = Fold(x1, k3k4, Load128(p));
  }

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 64 -> 32 bits.
  x = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x, low32), k5k0, 0x00),
                    _mm_srli_si128(x, 4));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

constexpr size_t kPclmulMinBytes = 64;

#endif  // SWIFT_CRC_X86

constexpr const char* kPortableName =
    std::endian::native == std::endian::little ? "slice-by-8" : "bytewise";

std::atomic<bool> g_simd_enabled{true};

bool UsePclmul() {
#ifdef SWIFT_CRC_X86
  static const bool supported =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return supported && g_simd_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

}  // namespace

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
#ifdef SWIFT_CRC_X86
  if (n >= kPclmulMinBytes && UsePclmul()) {
    const size_t bulk = n & ~size_t{15};
    state = UpdatePclmul(state, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return UpdatePortable(state, p, n);
}

uint32_t Crc32Final(uint32_t state) { return state ^ 0xFFFFFFFFu; }

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Final(Crc32Update(Crc32Init(), data));
}

bool SetCrc32SimdEnabled(bool enabled) {
  return g_simd_enabled.exchange(enabled, std::memory_order_relaxed);
}

const char* Crc32KernelName() {
  return UsePclmul() ? "pclmul" : kPortableName;
}

}  // namespace swift
