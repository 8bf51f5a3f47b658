// TOKENIZE stage: identifies attribute boundaries within each line of a text
// chunk (§2). Supports full tokenizing and selective tokenizing — stopping
// the linear scan after the last attribute the query needs ([5]'s selective
// tokenizing, reproduced for the Figure 6 experiment).
#ifndef SCANRAW_FORMAT_TOKENIZER_H_
#define SCANRAW_FORMAT_TOKENIZER_H_

#include <cstddef>

#include "common/result.h"
#include "format/positional_map.h"
#include "format/text_chunk.h"

namespace scanraw {

class ColumnBufferSource;

struct TokenizeOptions {
  char delimiter = ',';
  // Total attributes per row according to the schema.
  size_t schema_fields = 0;
  // Tokenize only the first `max_fields` attributes of each row (selective
  // tokenizing). Clamped to schema_fields; 0 means "all".
  size_t max_fields = 0;
  // RFC-4180 quoted dialect: fields may be enclosed in `quote`; embedded
  // delimiters and newlines stay literal inside quotes and a doubled quote
  // escapes one quote character. Quoted tokenizing emits an explicit-ends
  // map (a quoted field does not end one byte before the next field's
  // start) whose spans exclude the enclosing quotes; doubled quotes inside
  // the span are collapsed by PARSE (ParseOptions::unescape_quotes).
  bool quoted = false;
  char quote = '"';
  // When set, the map's slot array is drawn from here instead of being
  // allocated fresh (see ChunkBufferPool::WrapMap for the way back). May be
  // null.
  ColumnBufferSource* recycler = nullptr;

  size_t EffectiveFields() const {
    if (max_fields == 0 || max_fields > schema_fields) return schema_fields;
    return max_fields;
  }
};

// An unfilled map of `num_rows` rows in the layout TokenizeChunk builds for
// `fields_per_row` fields, its slot array drawn from `recycler` when set.
PositionalMap NewPositionalMap(size_t num_rows, size_t fields_per_row,
                               bool explicit_ends,
                               ColumnBufferSource* recycler);

// `map` when `status` is OK; otherwise returns the map's slot array to
// `recycler` (when set) and yields `status`.
Result<PositionalMap> MapOrRecycle(PositionalMap map, const Status& status,
                                   ColumnBufferSource* recycler);

// Scans `chunk` and fills a positional map with the start offset of each of
// the first EffectiveFields() attributes per row (plus the end-of-row slot).
// Returns Corruption if a row has fewer delimiters than requested.
Result<PositionalMap> TokenizeChunk(const TextChunk& chunk,
                                    const TokenizeOptions& options);

// Tokenizes rows [row_begin, row_end) of `chunk` into `*map`, which must
// cover the chunk's rows in the layout TokenizeChunk would build for these
// options (explicit-ends when quoted, compact otherwise). Exposed so the
// parallel chunker can fan disjoint row ranges of one shared map across
// workers; TokenizeChunk itself is this over [0, num_rows).
Status TokenizeRows(const TextChunk& chunk, const TokenizeOptions& options,
                    size_t row_begin, size_t row_end, PositionalMap* map);

// Incremental tokenizing with a cached partial map (§2: "a partial map can
// provide significant reductions even for the attributes whose positions
// are not stored ... find the position of the closest attribute already in
// the map and scan forward from there"). Reuses the offsets `base` already
// holds for this chunk and scans forward only past its last mapped field.
// If `base` already covers the requested fields this is a copy.
Result<PositionalMap> ExtendTokenizeMap(const TextChunk& chunk,
                                        const PositionalMap& base,
                                        const TokenizeOptions& options);

}  // namespace scanraw

#endif  // SCANRAW_FORMAT_TOKENIZER_H_
