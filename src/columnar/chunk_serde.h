// Serialization of BinaryChunks to and from the database storage format:
// each column is written as a contiguous page image that can be memory-mapped
// back into the in-memory array representation (§3.1: "each column is
// assigned an independent set of pages which can be directly mapped into the
// in-memory array representation").
//
// A page (format v2) is column-addressable:
//
//   magic u32 | header_len u32 | header_crc u32 | header | column bodies
//   header    = chunk_index u64 | num_rows u64 | num_columns u32 | entry*
//   entry     = col u64 | type u8 | encoding u8 | offset u64 | length u64
//               | crc u32
//
// `offset` counts from the start of the page. The bodies follow the header
// back to back in directory order, ascending by column id, and end exactly
// at the end of the page, so every byte is covered by the magic, the header
// CRC or one column's CRC, and each byte is hashed once. A reader can check
// the header alone and then read, check and decode only the columns it
// projects. Every checksum is CRC32C (common/crc32c.h).
#ifndef SCANRAW_COLUMNAR_CHUNK_SERDE_H_
#define SCANRAW_COLUMNAR_CHUNK_SERDE_H_

#include <string>
#include <string_view>
#include <vector>

#include "columnar/binary_chunk.h"
#include "common/result.h"

namespace scanraw {

// Per-column storage encodings. kVarintDelta applies zigzag-varint delta
// coding to integer columns — close to free on random data, and several
// times smaller on clustered data (pairs with the §3.3 sorted-write
// option). Doubles and strings always use kRawBytes.
enum class ColumnEncoding : uint8_t {
  kRawBytes = 0,
  kVarintDelta = 1,
};

// Serializes the chunk's `columns` (ascending, distinct, all present) as one
// page appended to `out`. With `compress` set, integer columns use
// kVarintDelta where it is smaller.
Status SerializeChunk(const BinaryChunk& chunk,
                      const std::vector<size_t>& columns, std::string* out,
                      bool compress = false);

// Serializes every column of the chunk.
Status SerializeChunk(const BinaryChunk& chunk, std::string* out,
                      bool compress = false);

// Inverse of SerializeChunk. Returns Corruption on a checksum or framing
// mismatch. `data` must contain exactly one page.
Result<BinaryChunk> DeserializeChunk(std::string_view data);

// One directory entry: where a column's encoded body lies in the page.
struct ColumnExtent {
  uint64_t col = 0;
  FieldType type = FieldType::kUint32;
  ColumnEncoding encoding = ColumnEncoding::kRawBytes;
  uint64_t offset = 0;  // from the start of the page
  uint64_t length = 0;
  uint32_t crc = 0;
};

struct SegmentHeader {
  uint64_t chunk_index = 0;
  uint64_t num_rows = 0;
  std::vector<ColumnExtent> columns;  // ascending by col, in page order
};

// Bytes from the start of a page through the end of its header, for a page
// holding `num_columns` columns.
uint64_t SegmentHeaderBytes(uint64_t num_columns);

// Parses the header at the start of `prefix`, which holds the first bytes
// of a page of `page_size` bytes (at least through the end of the header).
// Checks the magic, the header CRC, each entry's type and encoding, and that
// the bodies tile the rest of the page. Returns Corruption otherwise.
Result<SegmentHeader> ParseSegmentHeader(std::string_view prefix,
                                         uint64_t page_size);

// Checks the CRC of `body`, the bytes of `extent` in the page.
Status VerifyColumn(const ColumnExtent& extent, std::string_view body);

// Checks `body` like VerifyColumn, then decodes it into a column of
// `num_rows` values.
Result<ColumnVector> DecodeColumn(const ColumnExtent& extent,
                                  uint64_t num_rows, std::string_view body);

}  // namespace scanraw

#endif  // SCANRAW_COLUMNAR_CHUNK_SERDE_H_
