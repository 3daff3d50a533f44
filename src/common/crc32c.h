#ifndef ADAPTAGG_COMMON_CRC32C_H_
#define ADAPTAGG_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace adaptagg {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78), the
/// checksum used by iSCSI/ext4. It signs every TCP frame, spill page and
/// checkpoint page, so it sits on the overflow path's hot loop. This is
/// portable slice-by-8: eight table lookups fold eight bytes at a time,
/// with no intrinsics, and the result equals byte-at-a-time CRC-32C.
///
/// Extends `crc` with `len` bytes at `data`; pass 0 to start a fresh
/// checksum. Composable: Crc32c(Crc32c(0, a, n), b, m) checksums a||b.
uint32_t Crc32c(uint32_t crc, const uint8_t* data, size_t len);

}  // namespace adaptagg

#endif  // ADAPTAGG_COMMON_CRC32C_H_
