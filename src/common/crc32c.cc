#include "common/crc32c.h"

#include <array>

namespace adaptagg {
namespace {

using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

/// Slice-by-8 lookup tables for the reflected Castagnoli polynomial.
/// Table 0 is the classic byte-at-a-time table; table k advances a byte
/// through k further zero bytes, so eight lookups fold eight input bytes
/// at once. Built at compile time.
constexpr Crc32cTables BuildTables() {
  constexpr uint32_t kPoly = 0x82F63B78u;
  Crc32cTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32cTables kTables = BuildTables();

/// Little-endian 32-bit load, assembled bytewise so it is correct on any
/// host byte order (compilers fold it into one load where they can).
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32c(uint32_t crc, const uint8_t* data, size_t len) {
  crc = ~crc;
  while (len >= 8) {
    const uint32_t lo = crc ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    data += 8;
    len -= 8;
  }
  for (size_t i = 0; i < len; ++i) {
    crc = kTables[0][(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace adaptagg
