#include "columnar/chunk_serde.h"

#include <cstring>

#include "common/crc32c.h"
#include "common/string_util.h"

namespace scanraw {

namespace {

// "SCR2". Pages of any other format version fail this check and read as
// Corruption, so recovery re-extracts their chunks from raw.
constexpr uint32_t kPageMagic = 0x32524353;
// magic | header_len | header_crc
constexpr uint64_t kPrefixBytes = 12;
// chunk_index | num_rows | num_columns
constexpr uint64_t kHeaderFixedBytes = 20;
// col | type | encoding | offset | length | crc
constexpr uint64_t kEntryBytes = 30;

template <typename T>
void StoreAt(std::string* out, size_t at, T v) {
  std::memcpy(out->data() + at, &v, sizeof(v));
}

template <typename T>
T LoadAt(std::string_view data, size_t at) {
  T v{};
  std::memcpy(&v, data.data() + at, sizeof(v));
  return v;
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// Reads one varint at `*pos`; false on truncation or more than 10 bytes.
bool GetVarint(std::string_view data, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && *pos < data.size(); shift += 7) {
    const auto byte = static_cast<uint8_t>(data[(*pos)++]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Zigzag-varint delta stream over the column's integer values. Deltas are
// computed with wrapping unsigned arithmetic so int64 extremes are safe.
void EncodeVarintDelta(const ColumnVector& vec, std::string* out) {
  uint64_t previous = 0;
  for (size_t i = 0; i < vec.size(); ++i) {
    const uint64_t v = static_cast<uint64_t>(vec.NumericAt(i));
    PutVarint(out, ZigZag(static_cast<int64_t>(v - previous)));
    previous = v;
  }
}

bool DecodeVarintDelta(std::string_view body, FieldType type,
                       uint64_t num_values, ColumnVector* out) {
  size_t pos = 0;
  uint64_t previous = 0;
  for (uint64_t i = 0; i < num_values; ++i) {
    uint64_t raw = 0;
    if (!GetVarint(body, &pos, &raw)) return false;
    previous += static_cast<uint64_t>(UnZigZag(raw));
    if (type == FieldType::kUint32) {
      if (previous > UINT32_MAX) return false;
      out->AppendUint32(static_cast<uint32_t>(previous));
    } else {
      out->AppendInt64(static_cast<int64_t>(previous));
    }
  }
  return pos == body.size();
}

// Appends one column's body to `out` and returns its encoding. Adaptive:
// delta-encode integer columns only when it beats the raw page (clustered
// data wins; random 32-bit data would expand).
ColumnEncoding AppendColumnBody(const ColumnVector& vec, bool compress,
                                std::string* out) {
  const size_t start = out->size();
  if (compress &&
      (vec.type() == FieldType::kUint32 || vec.type() == FieldType::kInt64)) {
    EncodeVarintDelta(vec, out);
    if (out->size() - start < vec.fixed_data().size()) {
      return ColumnEncoding::kVarintDelta;
    }
    out->resize(start);
  }
  if (IsFixedWidth(vec.type())) {
    const auto& data = vec.fixed_data();
    out->append(reinterpret_cast<const char*>(data.data()), data.size());
  } else {
    const auto& arena = vec.string_arena();
    const auto& offsets = vec.string_offsets();
    PutU64(out, arena.size());
    out->append(arena);
    out->append(reinterpret_cast<const char*>(offsets.data()),
                offsets.size() * sizeof(uint32_t));
  }
  return ColumnEncoding::kRawBytes;
}

Status ColumnCorruption(const ColumnExtent& extent, const char* what) {
  return Status::Corruption(StringPrintf(
      "column %llu: %s", static_cast<unsigned long long>(extent.col), what));
}

}  // namespace

uint64_t SegmentHeaderBytes(uint64_t num_columns) {
  return kPrefixBytes + kHeaderFixedBytes + kEntryBytes * num_columns;
}

Status SerializeChunk(const BinaryChunk& chunk,
                      const std::vector<size_t>& columns, std::string* out,
                      bool compress) {
  const size_t base = out->size();
  const uint64_t header_len = kHeaderFixedBytes + kEntryBytes * columns.size();
  size_t body_bytes = 0;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (!chunk.HasColumn(columns[i])) {
      return Status::InvalidArgument(
          StringPrintf("chunk lacks column %zu", columns[i]));
    }
    if (i > 0 && columns[i] <= columns[i - 1]) {
      return Status::InvalidArgument("page columns must be ascending");
    }
    body_bytes += chunk.column(columns[i]).MemoryBytes() + sizeof(uint64_t);
  }
  out->reserve(base + kPrefixBytes + header_len + body_bytes);
  out->resize(base + kPrefixBytes + header_len);
  StoreAt<uint64_t>(out, base + kPrefixBytes, chunk.chunk_index());
  StoreAt<uint64_t>(out, base + kPrefixBytes + 8, chunk.num_rows());
  StoreAt<uint32_t>(out, base + kPrefixBytes + 16,
                    static_cast<uint32_t>(columns.size()));
  size_t entry = base + kPrefixBytes + kHeaderFixedBytes;
  for (size_t col : columns) {
    const ColumnVector& vec = chunk.column(col);
    const size_t start = out->size();
    const ColumnEncoding encoding = AppendColumnBody(vec, compress, out);
    const std::string_view body(out->data() + start, out->size() - start);
    StoreAt<uint64_t>(out, entry, col);
    StoreAt<uint8_t>(out, entry + 8, static_cast<uint8_t>(vec.type()));
    StoreAt<uint8_t>(out, entry + 9, static_cast<uint8_t>(encoding));
    StoreAt<uint64_t>(out, entry + 10, start - base);
    StoreAt<uint64_t>(out, entry + 18, body.size());
    StoreAt<uint32_t>(out, entry + 26, Crc32c(body));
    entry += kEntryBytes;
  }
  StoreAt<uint32_t>(out, base, kPageMagic);
  StoreAt<uint32_t>(out, base + 4, static_cast<uint32_t>(header_len));
  StoreAt<uint32_t>(
      out, base + 8,
      Crc32c(std::string_view(out->data() + base + kPrefixBytes, header_len)));
  return Status::OK();
}

Status SerializeChunk(const BinaryChunk& chunk, std::string* out,
                      bool compress) {
  return SerializeChunk(chunk, chunk.ColumnIds(), out, compress);
}

Result<SegmentHeader> ParseSegmentHeader(std::string_view prefix,
                                         uint64_t page_size) {
  if (prefix.size() < kPrefixBytes || prefix.size() > page_size) {
    return Status::Corruption("truncated chunk page");
  }
  if (LoadAt<uint32_t>(prefix, 0) != kPageMagic) {
    return Status::Corruption("bad chunk page magic or version");
  }
  const uint64_t header_len = LoadAt<uint32_t>(prefix, 4);
  if (header_len < kHeaderFixedBytes ||
      header_len > prefix.size() - kPrefixBytes) {
    return Status::Corruption("truncated chunk page header");
  }
  const std::string_view header = prefix.substr(kPrefixBytes, header_len);
  if (Crc32c(header) != LoadAt<uint32_t>(prefix, 8)) {
    return Status::Corruption("chunk page header checksum mismatch");
  }
  SegmentHeader out;
  out.chunk_index = LoadAt<uint64_t>(header, 0);
  out.num_rows = LoadAt<uint64_t>(header, 8);
  const uint64_t num_columns = LoadAt<uint32_t>(header, 16);
  if (header_len != kHeaderFixedBytes + kEntryBytes * num_columns) {
    return Status::Corruption("chunk page header length mismatch");
  }
  out.columns.reserve(num_columns);
  uint64_t next = kPrefixBytes + header_len;
  for (uint64_t i = 0; i < num_columns; ++i) {
    const size_t at = kHeaderFixedBytes + kEntryBytes * i;
    ColumnExtent e;
    e.col = LoadAt<uint64_t>(header, at);
    const auto type_raw = LoadAt<uint8_t>(header, at + 8);
    const auto encoding_raw = LoadAt<uint8_t>(header, at + 9);
    e.offset = LoadAt<uint64_t>(header, at + 10);
    e.length = LoadAt<uint64_t>(header, at + 18);
    e.crc = LoadAt<uint32_t>(header, at + 26);
    if (type_raw > static_cast<uint8_t>(FieldType::kString)) {
      return ColumnCorruption(e, "unknown type");
    }
    if (encoding_raw > static_cast<uint8_t>(ColumnEncoding::kVarintDelta)) {
      return ColumnCorruption(e, "unknown encoding");
    }
    e.type = static_cast<FieldType>(type_raw);
    e.encoding = static_cast<ColumnEncoding>(encoding_raw);
    if (e.encoding == ColumnEncoding::kVarintDelta &&
        e.type != FieldType::kUint32 && e.type != FieldType::kInt64) {
      return ColumnCorruption(e, "delta encoding on a non-integer column");
    }
    if (!out.columns.empty() && e.col <= out.columns.back().col) {
      return ColumnCorruption(e, "directory out of order");
    }
    if (e.offset != next || e.length > page_size - next) {
      return ColumnCorruption(e, "body outside its place in the page");
    }
    next += e.length;
    out.columns.push_back(e);
  }
  if (next != page_size) {
    return Status::Corruption("chunk page directory does not cover the page");
  }
  return out;
}

Status VerifyColumn(const ColumnExtent& extent, std::string_view body) {
  if (body.size() != extent.length) {
    return ColumnCorruption(extent, "body length mismatch");
  }
  if (Crc32c(body) != extent.crc) {
    return ColumnCorruption(extent, "checksum mismatch");
  }
  return Status::OK();
}

Result<ColumnVector> DecodeColumn(const ColumnExtent& extent,
                                  uint64_t num_rows, std::string_view body) {
  SCANRAW_RETURN_IF_ERROR(VerifyColumn(extent, body));
  ColumnVector vec(extent.type);
  // Each bound below is checked before anything is sized by num_rows, so a
  // header that claims more rows than the body holds cannot drive an
  // allocation.
  if (extent.encoding == ColumnEncoding::kVarintDelta) {
    if (num_rows > body.size()) {  // every value takes at least one byte
      return ColumnCorruption(extent, "delta body shorter than its rows");
    }
    vec.Reserve(num_rows);
    if (!DecodeVarintDelta(body, extent.type, num_rows, &vec)) {
      return ColumnCorruption(extent, "invalid delta body");
    }
  } else if (IsFixedWidth(extent.type)) {
    const size_t width = FixedWidth(extent.type);
    if (body.size() % width != 0 || body.size() / width != num_rows) {
      return ColumnCorruption(extent, "fixed body size mismatch");
    }
    vec.SetFixedData(std::vector<uint8_t>(body.begin(), body.end()), num_rows);
  } else {
    if (body.size() < sizeof(uint64_t)) {
      return ColumnCorruption(extent, "truncated string body");
    }
    const uint64_t arena_len = LoadAt<uint64_t>(body, 0);
    const uint64_t rest = body.size() - sizeof(uint64_t);
    if (arena_len > rest || (rest - arena_len) % sizeof(uint32_t) != 0) {
      return ColumnCorruption(extent, "string body size mismatch");
    }
    const uint64_t count = (rest - arena_len) / sizeof(uint32_t);
    if (count == 0 ? num_rows != 0 : count - 1 != num_rows) {
      return ColumnCorruption(extent, "string offsets count mismatch");
    }
    std::vector<uint32_t> offsets(count);
    if (count != 0) {
      std::memcpy(offsets.data(), body.data() + sizeof(uint64_t) + arena_len,
                  count * sizeof(uint32_t));
    }
    for (size_t i = 1; i < offsets.size(); ++i) {
      if (offsets[i] < offsets[i - 1]) {
        return ColumnCorruption(extent, "string offsets out of order");
      }
    }
    if (!offsets.empty() && offsets.back() != arena_len) {
      return ColumnCorruption(extent, "string arena size mismatch");
    }
    vec.SetStringData(std::string(body.substr(sizeof(uint64_t), arena_len)),
                      std::move(offsets));
  }
  return vec;
}

Result<BinaryChunk> DeserializeChunk(std::string_view data) {
  auto header = ParseSegmentHeader(data, data.size());
  if (!header.ok()) return header.status();
  BinaryChunk chunk(header->chunk_index);
  chunk.set_num_rows(header->num_rows);
  for (const ColumnExtent& e : header->columns) {
    auto vec =
        DecodeColumn(e, header->num_rows, data.substr(e.offset, e.length));
    if (!vec.ok()) return vec.status();
    SCANRAW_RETURN_IF_ERROR(chunk.AddColumn(e.col, std::move(*vec)));
  }
  return chunk;
}

}  // namespace scanraw
