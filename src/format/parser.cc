#include "format/parser.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/string_util.h"

namespace scanraw {

namespace {

// Full-range strtod through a NUL-terminated heap copy: the cold
// compatibility path for inputs std::from_chars rejects but the historical
// strtod-based parser accepted (hex floats, leading whitespace, and
// out-of-range magnitudes saturating to ±HUGE_VAL / 0). Never runs for
// well-formed decimal fields.
bool StrtodFull(const char* first, const char* last, double* out) {
  const std::string copy(first, last);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return false;
  *out = value;
  return true;
}

}  // namespace

bool TryParseUint32(const char* first, const char* last, uint32_t* out) {
  // std::from_chars already rejects signs, whitespace, and empty input,
  // exactly matching the digits-only contract of ParseUint32.
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

bool TryParseInt64(const char* first, const char* last, int64_t* out) {
  // from_chars accepts '-' but not '+'; strip an explicit plus, which must
  // be followed by a digit (not another sign or end-of-field).
  if (first != last && *first == '+') {
    ++first;
    if (first == last || *first < '0' || *first > '9') return false;
  }
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

bool TryParseDouble(const char* first, const char* last, double* out) {
  if (first == last) return false;
  const char* p = first;
  if (*p == '+') {
    ++p;
    // "+-1" / "++1" / a bare "+" were never valid; bail before from_chars
    // would happily parse the inner "-1".
    if (p == last || *p == '+' || *p == '-') return false;
  }
  const auto [ptr, ec] =
      std::from_chars(p, last, *out, std::chars_format::general);
  if (ec == std::errc() && ptr == last) return true;
  return StrtodFull(first, last, out);
}

Result<uint32_t> ParseUint32(std::string_view text) {
  uint32_t value = 0;
  if (TryParseUint32(text.data(), text.data() + text.size(), &value)) {
    return value;
  }
  if (text.empty()) return Status::Corruption("empty uint32 field");
  // Overflow is reported the moment the digit prefix exceeds the type's
  // range, even with trailing junk after it (matching the historical
  // digit-by-digit accumulation).
  uint32_t probe = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), probe);
  (void)ptr;
  if (ec == std::errc::result_out_of_range) {
    return Status::Corruption("uint32 overflow: '" + std::string(text) + "'");
  }
  return Status::Corruption("invalid uint32: '" + std::string(text) + "'");
}

Result<int64_t> ParseInt64(std::string_view text) {
  int64_t value = 0;
  if (TryParseInt64(text.data(), text.data() + text.size(), &value)) {
    return value;
  }
  if (text.empty()) return Status::Corruption("empty int64 field");
  if (text.size() == 1 && (text[0] == '-' || text[0] == '+')) {
    return Status::Corruption("lone sign in int64");
  }
  // Reconstruct the historical accumulate-in-uint64 semantics: overflow is
  // reported when the digit prefix exceeds the uint64 accumulator (even
  // with trailing junk), or when a fully-digits magnitude exceeds the
  // signed limit; anything else is malformed.
  std::string_view digits = text;
  if (digits[0] == '-' || digits[0] == '+') digits.remove_prefix(1);
  const bool negative = text[0] == '-';
  uint64_t magnitude = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), magnitude);
  const bool all_digits = ptr == digits.data() + digits.size();
  if (ec == std::errc::result_out_of_range) {
    return Status::Corruption("int64 overflow: '" + std::string(text) + "'");
  }
  if (all_digits && ec == std::errc()) {
    const uint64_t limit = negative ? (1ull << 63) : (1ull << 63) - 1;
    if (magnitude > limit) {
      return Status::Corruption("int64 overflow: '" + std::string(text) +
                                "'");
    }
  }
  return Status::Corruption("invalid int64: '" + std::string(text) + "'");
}

Result<double> ParseDouble(std::string_view text) {
  if (text.empty()) return Status::Corruption("empty double field");
  double value = 0;
  if (TryParseDouble(text.data(), text.data() + text.size(), &value)) {
    return value;
  }
  return Status::Corruption("invalid double: '" + std::string(text) + "'");
}

namespace {

// Classifies a field the fast path rejected by re-running the
// Result-returning parser on it. Only runs after a parse has already
// failed, so the hot loops stay allocation-free.
Status FieldStatus(std::string_view field, FieldType type) {
  switch (type) {
    case FieldType::kUint32:
      return ParseUint32(field).status();
    case FieldType::kInt64:
      return ParseInt64(field).status();
    case FieldType::kDouble:
      return ParseDouble(field).status();
    case FieldType::kString:
      break;
  }
  return Status::Internal("unknown field type");
}

std::string_view FieldText(const TextChunk& chunk, const PositionalMap& map,
                           size_t r, size_t c) {
  const uint32_t s = map.FieldStart(r, c);
  return std::string_view(chunk.data).substr(s, map.FieldEnd(r, c) - s);
}

constexpr uint64_t kBytes(uint8_t b) { return 0x0101010101010101ull * b; }

// kPadMask[len .. len + 16) is 0xFF over the 16 - len window bytes in front
// of a len-byte field and 0 over the field itself.
constexpr unsigned char kPadMask[32] = {
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};

// Eight ASCII digits, first digit in the low byte, folded to their value.
uint64_t EightDigits(uint64_t w) {
  w = ((w & kBytes(0x0F)) * 2561) >> 8;
  w = ((w & 0x00FF00FF00FF00FFull) * 6553601) >> 16;
  return ((w & 0x0000FFFF0000FFFFull) * 42949672960001ull) >> 32;
}

// SWAR ("SIMD within a register") digit kernel for the field [s, e) of
// `base`. Loads the 16 bytes ending at `e`, overwrites the bytes in front
// of the field with '0', checks all 16 are digits with one nibble test per
// 64-bit word, and folds each word in three multiplies. Returns false for
// an empty field, a field over 16 bytes, a non-digit byte, or a field
// ending fewer than 16 bytes into the buffer (the readable window is
// [e - 16, e)); callers then fall back to TryParse*, which alone define
// the accepted grammar — the kernel accepts a strict subset of it.
bool ParseDigits16(const char* base, uint32_t s, uint32_t e, uint64_t* out) {
  if constexpr (std::endian::native != std::endian::little) return false;
  const uint32_t len = e - s;
  if (len - 1 >= 16 || e < 16) return false;
  uint64_t w[2];
  uint64_t pad[2];
  std::memcpy(w, base + e - 16, sizeof(w));
  std::memcpy(pad, kPadMask + len, sizeof(pad));
  uint64_t bad = 0;
  for (int i = 0; i < 2; ++i) {
    w[i] = (w[i] & ~pad[i]) | (kBytes('0') & pad[i]);
    // Zero iff every byte is 0x30..0x39: high nibble 3, and still 3 after
    // adding 6 (a carry out of a byte only follows a failing byte).
    bad |= ((w[i] & kBytes(0xF0)) |
            (((w[i] + kBytes(0x06)) & kBytes(0xF0)) >> 4)) ^
           kBytes(0x33);
  }
  if (bad != 0) return false;
  *out = EightDigits(w[0]) * 100000000 + EightDigits(w[1]);
  return true;
}

bool ConvertUint32(const char* base, uint32_t s, uint32_t e, uint32_t* out) {
  uint64_t v = 0;
  if (ParseDigits16(base, s, e, &v) && v <= UINT32_MAX) {
    *out = static_cast<uint32_t>(v);
    return true;
  }
  return TryParseUint32(base + s, base + e, out);
}

bool ConvertInt64(const char* base, uint32_t s, uint32_t e, int64_t* out) {
  // One leading sign is stripped; whatever follows must be 1-16 digits
  // (16 digits never overflow int64), else TryParseInt64 decides.
  const bool negative = s < e && base[s] == '-';
  const uint32_t ds = s + (negative || (s < e && base[s] == '+'));
  uint64_t v = 0;
  if (ParseDigits16(base, ds, e, &v)) {
    *out = negative ? -static_cast<int64_t>(v) : static_cast<int64_t>(v);
    return true;
  }
  return TryParseInt64(base + s, base + e, out);
}

// Row index ParseBlockTyped returns when every field converted.
constexpr size_t kAllParsed = SIZE_MAX;

// Converts `bn` selected rows starting at selection index `b0` of column
// `c` in one typed loop, templated on a span provider `span(i, &r, &s, &e)`
// so the compact fast path (hoisted row stride, loop-invariant end
// adjustment) and the generic path share the per-type bodies. The type
// switch runs once per block instead of once per field, and fixed-width
// output lands in a single bulk-resized block. Returns the row of the
// first field that fails to convert, or kAllParsed.
template <typename SpanFn>
size_t ParseBlockTyped(const TextChunk& chunk, FieldType type, size_t bn,
                       const ParseOptions& options, ColumnVector* out,
                       SpanFn span) {
  const std::string_view data(chunk.data);
  const char* base = data.data();
  size_t r = 0;
  uint32_t s = 0;
  uint32_t e = 0;
  switch (type) {
    case FieldType::kUint32: {
      uint32_t* dst = out->AppendUint32Block(bn);
      for (size_t i = 0; i < bn; ++i) {
        span(i, &r, &s, &e);
        if (!ConvertUint32(base, s, e, &dst[i])) return r;
      }
      break;
    }
    case FieldType::kInt64: {
      int64_t* dst = out->AppendInt64Block(bn);
      for (size_t i = 0; i < bn; ++i) {
        span(i, &r, &s, &e);
        if (!ConvertInt64(base, s, e, &dst[i])) return r;
      }
      break;
    }
    case FieldType::kDouble: {
      double* dst = out->AppendDoubleBlock(bn);
      for (size_t i = 0; i < bn; ++i) {
        span(i, &r, &s, &e);
        if (!TryParseDouble(base + s, base + e, &dst[i])) return r;
      }
      break;
    }
    case FieldType::kString: {
      const char quote = options.quote;
      std::string collapsed;
      for (size_t i = 0; i < bn; ++i) {
        span(i, &r, &s, &e);
        const std::string_view field = data.substr(s, e - s);
        if (!options.unescape_quotes ||
            field.find(quote) == std::string_view::npos) {
          out->AppendString(field);
          continue;
        }
        // Quoted-dialect escape: a doubled quote inside the field is one
        // literal quote character; a lone quote passes through unchanged.
        collapsed.clear();
        collapsed.reserve(field.size());
        for (size_t p = 0; p < field.size(); ++p) {
          collapsed.push_back(field[p]);
          if (field[p] == quote && p + 1 < field.size() &&
              field[p + 1] == quote) {
            ++p;
          }
        }
        out->AppendString(collapsed);
      }
      break;
    }
  }
  return kAllParsed;
}

// One block of one column. `sel` lists the surviving row indexes (null =
// all rows); `b0` is the block's first selection index. Returns the row of
// the first field that fails to convert, or kAllParsed.
size_t ParseColumnBlock(const TextChunk& chunk, const PositionalMap& map,
                        size_t c, FieldType type, const uint32_t* sel,
                        size_t b0, size_t bn, const ParseOptions& options,
                        ColumnVector* out) {
  if (!map.explicit_ends() && sel == nullptr) {
    // Compact unfiltered fast path: rows are consecutive, so the slot
    // pointer advances by a fixed stride, and whether the field end needs
    // the delimiter-byte adjustment is a per-column constant.
    const size_t stride = map.fields_per_row() + 1;
    const uint32_t* slot = map.RowData(b0) + c;
    const uint32_t adj = (c + 1 == map.fields_per_row()) ? 0 : 1;
    return ParseBlockTyped(
        chunk, type, bn, options, out,
        [=](size_t i, size_t* r, uint32_t* s, uint32_t* e) {
          *r = b0 + i;
          const uint32_t* p = slot + i * stride;
          *s = p[0];
          *e = p[1] - adj;
        });
  }
  return ParseBlockTyped(chunk, type, bn, options, out,
                         [&map, sel, c, b0](size_t i, size_t* r, uint32_t* s,
                                            uint32_t* e) {
                           *r = sel != nullptr ? sel[b0 + i] : b0 + i;
                           *s = map.FieldStart(*r, c);
                           *e = map.FieldEnd(*r, c);
                         });
}

// Rows per processing block: columns are parsed block-at-a-time so the
// text and map bytes a block touches stay cache-resident while every
// projected column walks them (a whole wide chunk would be re-streamed
// from memory once per column otherwise).
constexpr size_t kParseRowBlock = 512;

// Payload bytes of string column `c` over the output rows: the sum of the
// fields' spans, an upper bound on the arena (collapsing doubled quotes
// only shrinks it), so a recycled arena never regrows mid-chunk.
size_t ArenaBytes(const PositionalMap& map, size_t c, const uint32_t* sel,
                  size_t out_rows) {
  size_t bytes = 0;
  for (size_t i = 0; i < out_rows; ++i) {
    const size_t r = sel != nullptr ? sel[i] : i;
    const uint32_t start = map.FieldStart(r, c);
    const uint32_t end = map.FieldEnd(r, c);
    if (end > start) bytes += end - start;
  }
  return bytes;
}

}  // namespace

Result<BinaryChunk> ParseChunk(const TextChunk& chunk,
                               const PositionalMap& map, const Schema& schema,
                               const ParseOptions& options) {
  std::vector<size_t> cols = options.projected_columns;
  if (cols.empty()) {
    cols.resize(schema.num_columns());
    for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  }
  for (size_t c : cols) {
    if (c >= schema.num_columns()) {
      return Status::InvalidArgument(
          StringPrintf("projected column %zu out of range", c));
    }
    if (c >= map.fields_per_row()) {
      return Status::InvalidArgument(StringPrintf(
          "column %zu not covered by positional map (%zu fields)", c,
          map.fields_per_row()));
    }
  }
  if (options.pushdown.has_value()) {
    const size_t pc = options.pushdown->column;
    if (pc >= map.fields_per_row()) {
      return Status::InvalidArgument("push-down column not tokenized");
    }
    if (schema.column(pc).type == FieldType::kString) {
      return Status::InvalidArgument("push-down filter on string column");
    }
  }
  if (map.num_rows() != chunk.num_rows()) {
    return Status::InvalidArgument("positional map / chunk row mismatch");
  }

  const size_t num_rows = chunk.num_rows();

  // Push-down selection first (§2): the predicate column goes through the
  // same typed block loop, then one pass over its values produces the row
  // selection every projected column honors. Its errors carry no row/col
  // context, as in the historical row-at-a-time parser.
  std::vector<uint32_t> selected;
  const bool filtered = options.pushdown.has_value();
  if (filtered) {
    const auto& pd = *options.pushdown;
    const FieldType pt = schema.column(pd.column).type;
    ColumnVector pred(pt);
    const size_t bad = ParseColumnBlock(chunk, map, pd.column, pt, nullptr, 0,
                                        num_rows, options, &pred);
    if (bad != kAllParsed) {
      return FieldStatus(FieldText(chunk, map, bad, pd.column), pt);
    }
    selected.reserve(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      const int64_t value = pred.NumericAt(r);
      if (value >= pd.min_value && value <= pd.max_value) {
        selected.push_back(static_cast<uint32_t>(r));
      }
    }
  }
  const uint32_t* sel = filtered ? selected.data() : nullptr;
  const size_t out_rows = filtered ? selected.size() : num_rows;

  std::vector<ColumnVector> vectors;
  vectors.reserve(cols.size());
  for (size_t c : cols) {
    const FieldType type = schema.column(c).type;
    ColumnVector vec(type);
    if (options.recycler != nullptr) {
      vec.AdoptBuffersFrom(options.recycler, out_rows,
                           type == FieldType::kString
                               ? ArenaBytes(map, c, sel, out_rows)
                               : 0);
    }
    vec.Reserve(out_rows);
    vectors.push_back(std::move(vec));
  }
  for (size_t b0 = 0; b0 < out_rows; b0 += kParseRowBlock) {
    const size_t bn = std::min(kParseRowBlock, out_rows - b0);
    for (size_t j = 0; j < cols.size(); ++j) {
      const FieldType type = schema.column(cols[j]).type;
      const size_t bad = ParseColumnBlock(chunk, map, cols[j], type, sel, b0,
                                          bn, options, &vectors[j]);
      if (bad == kAllParsed) continue;
      const Status s = FieldStatus(FieldText(chunk, map, bad, cols[j]), type);
      if (options.recycler != nullptr) {
        for (ColumnVector& v : vectors) v.ReleaseBuffersTo(options.recycler);
      }
      return Status(s.code(),
                    StringPrintf("chunk %llu row %zu col %zu: ",
                                 static_cast<unsigned long long>(
                                     chunk.chunk_index),
                                 bad, cols[j]) +
                        std::string(s.message()));
    }
  }

  BinaryChunk out(chunk.chunk_index);
  for (size_t j = 0; j < cols.size(); ++j) {
    SCANRAW_RETURN_IF_ERROR(out.AddColumn(cols[j], std::move(vectors[j])));
  }
  if (out.num_columns() > 0 && out.num_rows() == 0) {
    // All rows filtered out: keep an explicit zero-row chunk.
    out.set_num_rows(0);
  }
  return out;
}

}  // namespace scanraw
