#include "format/tokenizer.h"

#include "columnar/column_vector.h"
#include "common/byte_scan.h"
#include "common/string_util.h"

namespace scanraw {

namespace {

// End offset (within chunk.data) of line `r`, excluding newline characters.
uint32_t LineEnd(const TextChunk& chunk, size_t r) {
  uint32_t end = (r + 1 < chunk.line_starts.size())
                     ? chunk.line_starts[r + 1]
                     : static_cast<uint32_t>(chunk.data.size());
  const std::string& d = chunk.data;
  // A line carries at most one '\n' (it is the split byte), possibly
  // preceded by '\r's.
  if (end > chunk.line_starts[r] && d[end - 1] == '\n') --end;
  while (end > chunk.line_starts[r] && d[end - 1] == '\r') --end;
  return end;
}

// One RFC-4180 row: fields split at delimiters found at outside-quote
// parity — the exact FSM the record scanner (format/parallel_chunker) runs,
// so READ and TOKENIZE agree on every byte of every input, well-formed or
// not. Spans of fully-quoted fields exclude the enclosing quotes; doubled
// quotes inside stay for PARSE to collapse.
Status TokenizeRowQuoted(const TextChunk& chunk,
                         const TokenizeOptions& options, size_t fields,
                         size_t r, PositionalMap* map) {
  const char delim = options.delimiter;
  const char quote = options.quote;
  const char* data = chunk.data.data();
  const uint32_t end = LineEnd(chunk, r);
  size_t pos = chunk.line_starts[r];
  size_t f = 0;
  while (true) {
    const size_t field_start = pos;
    // Hop to the next delimiter at outside-quote parity (or line end).
    size_t sep = bytescan::kNpos;
    size_t p = pos;
    bool inside = false;
    while (p < end) {
      if (inside) {
        const size_t q = bytescan::FindByte(data, p, end, quote);
        if (q == bytescan::kNpos) {
          p = end;
          break;
        }
        inside = false;
        p = q + 1;
      } else {
        const size_t q = bytescan::FindEither(data, p, end, quote, delim);
        if (q == bytescan::kNpos) break;
        if (data[q] == quote) {
          inside = true;
          p = q + 1;
        } else {
          sep = q;
          break;
        }
      }
    }
    size_t fs = field_start;
    size_t fe = sep == bytescan::kNpos ? end : sep;
    if (fe - fs >= 2 && data[fs] == quote && data[fe - 1] == quote) {
      ++fs;
      --fe;
    }
    map->SetSpan(r, f, static_cast<uint32_t>(fs), static_cast<uint32_t>(fe));
    ++f;
    if (f == fields) {
      if (sep != bytescan::kNpos && fields == options.schema_fields) {
        return Status::Corruption(StringPrintf(
            "chunk %llu row %zu: more fields than the %zu in the schema",
            static_cast<unsigned long long>(chunk.chunk_index), r, fields));
      }
      return Status::OK();
    }
    if (sep == bytescan::kNpos) {
      return Status::Corruption(StringPrintf(
          "chunk %llu row %zu: expected %zu fields, found %zu",
          static_cast<unsigned long long>(chunk.chunk_index), r, fields, f));
    }
    pos = sep + 1;
  }
}

}  // namespace

Status TokenizeRows(const TextChunk& chunk, const TokenizeOptions& options,
                    size_t row_begin, size_t row_end, PositionalMap* map) {
  const size_t fields = options.EffectiveFields();
  if (options.quoted) {
    for (size_t r = row_begin; r < row_end; ++r) {
      SCANRAW_RETURN_IF_ERROR(TokenizeRowQuoted(chunk, options, fields, r,
                                                map));
    }
    return Status::OK();
  }
  const char delim = options.delimiter;
  const char* data = chunk.data.data();
  for (size_t r = row_begin; r < row_end; ++r) {
    const uint32_t start = chunk.line_starts[r];
    const uint32_t end = LineEnd(chunk, r);
    // One bulk scan per row: every delimiter hit writes the next field's
    // start (bias 1) straight into the row's slot array, and the overflow
    // match doubles as the end-of-last-field / extra-field probe.
    uint32_t* slots = map->MutableRow(r);
    slots[0] = start;
    size_t next = bytescan::kNpos;
    const size_t found = bytescan::FindN(data, start, end, delim, slots + 1,
                                         fields - 1, /*bias=*/1, &next);
    if (found < fields - 1) {
      return Status::Corruption(StringPrintf(
          "chunk %llu row %zu: expected %zu fields, found %zu",
          static_cast<unsigned long long>(chunk.chunk_index), r, fields,
          found + 1));
    }
    if (next != bytescan::kNpos && fields == options.schema_fields) {
      return Status::Corruption(StringPrintf(
          "chunk %llu row %zu: more fields than the %zu in the schema",
          static_cast<unsigned long long>(chunk.chunk_index), r, fields));
    }
    // End of the last tokenized field: next delimiter or end of line.
    slots[fields] = (next != bytescan::kNpos && fields < options.schema_fields)
                        ? static_cast<uint32_t>(next)
                        : end;
  }
  return Status::OK();
}

PositionalMap NewPositionalMap(size_t num_rows, size_t fields_per_row,
                               bool explicit_ends,
                               ColumnBufferSource* recycler) {
  if (recycler == nullptr) {
    return PositionalMap(num_rows, fields_per_row, explicit_ends);
  }
  const size_t slots_per_row =
      explicit_ends ? 2 * fields_per_row : fields_per_row + 1;
  return PositionalMap(num_rows, fields_per_row, explicit_ends,
                       recycler->AcquireOffsets(num_rows * slots_per_row));
}

Result<PositionalMap> MapOrRecycle(PositionalMap map, const Status& status,
                                   ColumnBufferSource* recycler) {
  if (status.ok()) return map;
  if (recycler != nullptr) recycler->ReleaseOffsets(map.ReleaseSlots());
  return status;
}

Result<PositionalMap> TokenizeChunk(const TextChunk& chunk,
                                    const TokenizeOptions& options) {
  if (options.schema_fields == 0) {
    return Status::InvalidArgument("schema_fields must be > 0");
  }
  PositionalMap map =
      NewPositionalMap(chunk.num_rows(), options.EffectiveFields(),
                       /*explicit_ends=*/options.quoted, options.recycler);
  const Status status =
      TokenizeRows(chunk, options, 0, chunk.num_rows(), &map);
  return MapOrRecycle(std::move(map), status, options.recycler);
}

Result<PositionalMap> ExtendTokenizeMap(const TextChunk& chunk,
                                        const PositionalMap& base,
                                        const TokenizeOptions& options) {
  if (options.schema_fields == 0) {
    return Status::InvalidArgument("schema_fields must be > 0");
  }
  if (base.num_rows() != chunk.num_rows()) {
    return Status::InvalidArgument("base map / chunk row mismatch");
  }
  const size_t fields = options.EffectiveFields();
  const size_t base_fields = base.fields_per_row();
  if (base_fields == 0) return TokenizeChunk(chunk, options);
  const char delim = options.delimiter;
  const char* data = chunk.data.data();
  PositionalMap map = NewPositionalMap(chunk.num_rows(), fields,
                                       /*explicit_ends=*/false,
                                       options.recycler);

  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    const size_t copied = std::min(fields, base_fields);
    for (size_t f = 0; f < copied; ++f) map.Set(r, f, base.FieldStart(r, f));
    if (fields <= base_fields) {
      // Fully covered: the end slot is either base's recorded end or the
      // byte before the next mapped field's start (the delimiter).
      map.Set(r, fields,
              fields == base_fields ? base.FieldEnd(r, base_fields - 1)
                                    : base.FieldStart(r, fields) - 1);
      continue;
    }
    // Resume the scan right after the last mapped field. `field_end` tracks
    // the end offset of the most recent field (a delimiter position, or the
    // line end for the final field of the row).
    const uint32_t end = LineEnd(chunk, r);
    uint32_t field_end = base.FieldEnd(r, base_fields - 1);
    for (size_t f = base_fields; f < fields; ++f) {
      if (field_end >= end) {
        return MapOrRecycle(
            std::move(map),
            Status::Corruption(StringPrintf(
                "chunk %llu row %zu: expected %zu fields, found %zu",
                static_cast<unsigned long long>(chunk.chunk_index), r,
                fields, f)),
            options.recycler);
      }
      const uint32_t start = field_end + 1;  // skip the delimiter
      map.Set(r, f, start);
      const size_t hit = bytescan::FindByte(data, start, end, delim);
      field_end = hit == bytescan::kNpos ? end : static_cast<uint32_t>(hit);
    }
    if (fields == options.schema_fields && field_end != end) {
      return MapOrRecycle(
          std::move(map),
          Status::Corruption(StringPrintf(
              "chunk %llu row %zu: more fields than the %zu in the schema",
              static_cast<unsigned long long>(chunk.chunk_index), r,
              fields)),
          options.recycler);
    }
    map.Set(r, fields, field_end);
  }
  return map;
}

}  // namespace scanraw
