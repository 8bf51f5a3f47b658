// CRC32C (Castagnoli, reflected polynomial 0x82F63B78): the one checksum of
// every persisted byte — chunk pages, posmap sidecars and BAM-like blocks.
// On x86-64 it runs the SSE4.2 crc32 instruction, 8 bytes per step, chosen
// once per process by a CPU check; everywhere else (and on x86-64 CPUs
// without SSE4.2) it runs a portable slicing-by-8 table. Both paths compute
// the same value. It detects every single-bit error and every burst of up to
// 32 bits.
#ifndef SCANRAW_COMMON_CRC32C_H_
#define SCANRAW_COMMON_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace scanraw {

// CRC32C of `data` (initial value and final xor 0xFFFFFFFF, so
// Crc32c("123456789") == 0xE3069283).
uint32_t Crc32c(std::string_view data);

namespace detail {

// The portable table path, whatever the CPU. Exposed so tests can check
// that the hardware path agrees with it.
uint32_t Crc32cPortable(std::string_view data);

}  // namespace detail
}  // namespace scanraw

#endif  // SCANRAW_COMMON_CRC32C_H_
