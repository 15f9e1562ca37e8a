// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// check behind every self-verifying byte format in the library: SampleStore
// records and the binary checkpoint's header and weight blob.
#ifndef SCIS_COMMON_CRC32_H_
#define SCIS_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace scis {

// CRC-32 over `n` bytes. Exposed so tests can corrupt data knowingly.
uint32_t Crc32(const uint8_t* data, size_t n);

}  // namespace scis

#endif  // SCIS_COMMON_CRC32_H_
