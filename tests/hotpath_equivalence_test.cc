// Equivalence tests for the hot path's three tiers: the scalar reference
// (bench/reference_scalar.h, frozen), the sequential SIMD tokenizer, and the
// speculative parallel tokenizer (format/parallel_chunker) must produce
// byte-identical PositionalMaps — and the column-at-a-time parser identical
// BinaryChunks — over randomized schemas, delimiters, and edge-case
// layouts: CRLF line endings, empty fields, unterminated last lines,
// projections, selective tokenizing, push-down filters (including filters
// that drop every row), RFC-4180 quoted fields with range boundaries forced
// into adversarial spots, and integer fields aimed at the parser's 16-byte
// SWAR digit kernel (lengths around 16, leading zeros, range limits, signs,
// non-digit bytes at every position, fields near the chunk's first byte).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "bench/reference_scalar.h"
#include "common/random.h"
#include "exec/query.h"
#include "format/parallel_chunker.h"
#include "format/parser.h"
#include "format/schema.h"
#include "format/text_chunk.h"
#include "format/tokenizer.h"
#include "pipeline/thread_pool.h"
#include "scanraw/chunk_buffer_pool.h"

namespace scanraw {
namespace {

void ExpectMapsEqual(const PositionalMap& got, const PositionalMap& want,
                     const std::string& context) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << context;
  ASSERT_EQ(got.fields_per_row(), want.fields_per_row()) << context;
  for (size_t r = 0; r < want.num_rows(); ++r) {
    for (size_t f = 0; f < want.fields_per_row(); ++f) {
      ASSERT_EQ(got.FieldStart(r, f), want.FieldStart(r, f))
          << context << " row " << r << " field " << f;
      ASSERT_EQ(got.FieldEnd(r, f), want.FieldEnd(r, f))
          << context << " row " << r << " field " << f;
    }
  }
}

void ExpectChunksEqual(const BinaryChunk& got, const BinaryChunk& want,
                       const std::string& context) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << context;
  ASSERT_EQ(got.ColumnIds(), want.ColumnIds()) << context;
  for (size_t id : want.ColumnIds()) {
    const ColumnVector& g = got.column(id);
    const ColumnVector& w = want.column(id);
    ASSERT_EQ(g.type(), w.type()) << context << " col " << id;
    ASSERT_EQ(g.size(), w.size()) << context << " col " << id;
    // Byte-identical backing arrays, not just equal logical values.
    ASSERT_EQ(g.fixed_data(), w.fixed_data()) << context << " col " << id;
    ASSERT_EQ(g.string_arena(), w.string_arena()) << context << " col " << id;
    ASSERT_EQ(g.string_offsets(), w.string_offsets())
        << context << " col " << id;
  }
}

FieldType RandomType(Random* rng) {
  switch (rng->Uniform(4)) {
    case 0: return FieldType::kUint32;
    case 1: return FieldType::kInt64;
    case 2: return FieldType::kDouble;
    default: return FieldType::kString;
  }
}

// `digits` with zeros prepended up to `width` characters.
std::string ZeroPad(std::string digits, size_t width) {
  if (digits.size() < width) digits.insert(0, width - digits.size(), '0');
  return digits;
}

std::string RandomSign(Random* rng) {
  switch (rng->Uniform(3)) {
    case 0: return "-";
    case 1: return "+";
    default: return "";
  }
}

std::string RandomFieldText(Random* rng, FieldType type, char delimiter) {
  switch (type) {
    case FieldType::kUint32:
      switch (rng->Uniform(4)) {
        case 0:  // leading zeros, 1-20 digits
          return ZeroPad(std::to_string(rng->Uniform(100000)),
                         1 + rng->Uniform(20));
        case 1:
          return "4294967295";
        default:
          return std::to_string(rng->NextUint32());
      }
    case FieldType::kInt64:
      switch (rng->Uniform(5)) {
        case 0: {  // 15-, 16- or 17-byte field, leading zeros allowed
          std::string s = RandomSign(rng);
          const size_t bytes = 15 + rng->Uniform(3);
          while (s.size() < bytes) {
            s.push_back(static_cast<char>('0' + rng->Uniform(10)));
          }
          return s;
        }
        case 1:  // leading zeros, 1-20 digits
          return RandomSign(rng) + ZeroPad(std::to_string(rng->Uniform(1000)),
                                           1 + rng->Uniform(20));
        case 2: {
          static const char* const kLimits[] = {
              "9223372036854775807", "-9223372036854775807",
              "+9223372036854775807", "-9223372036854775808"};
          return kLimits[rng->Uniform(4)];
        }
        default: {
          const int64_t v = static_cast<int64_t>(rng->NextUint64());
          std::string s = std::to_string(v);
          if (v >= 0 && rng->OneIn(4)) s.insert(0, "+");
          return s;
        }
      }
    case FieldType::kDouble:
      switch (rng->Uniform(4)) {
        case 0:
          return std::to_string(rng->NextDouble() * 1e6 - 5e5);
        case 1:
          return std::to_string(rng->NextUint32()) + "e" +
                 std::to_string(rng->Uniform(30));
        case 2:
          return "-" + std::to_string(rng->NextDouble());
        default:
          return std::to_string(rng->Uniform(1000));
      }
    case FieldType::kString: {
      const size_t len = rng->Uniform(12);  // often empty
      std::string s;
      for (size_t i = 0; i < len; ++i) {
        char c = static_cast<char>(' ' + rng->Uniform(94));
        if (c == delimiter || c == '\n' || c == '\r') c = '_';
        s.push_back(c);
      }
      return s;
    }
  }
  return "";
}

struct RandomCsv {
  Schema schema;
  TextChunk chunk;
  size_t rows = 0;
};

RandomCsv MakeRandomCsv(Random* rng, uint64_t chunk_index) {
  static const char kDelims[] = {',', ';', '\t', '|'};
  const char delim = kDelims[rng->Uniform(4)];
  const size_t columns = 1 + rng->Uniform(12);
  const size_t rows = rng->Uniform(120);  // sometimes zero
  const bool crlf = rng->OneIn(3);
  const bool unterminated = rows > 0 && rng->OneIn(3);

  std::vector<ColumnDef> defs(columns);
  for (size_t c = 0; c < columns; ++c) {
    defs[c].name = "c" + std::to_string(c);
    defs[c].type = RandomType(rng);
  }
  RandomCsv out;
  out.schema = Schema(defs, delim);
  out.rows = rows;

  std::string data;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns; ++c) {
      if (c > 0) data.push_back(delim);
      data += RandomFieldText(rng, defs[c].type, delim);
    }
    if (r + 1 == rows && unterminated) break;
    data += crlf ? "\r\n" : "\n";
  }
  out.chunk = MakeTextChunk(std::move(data), chunk_index);
  return out;
}

TokenizeOptions TokOpts(const Schema& schema, size_t max_fields = 0) {
  TokenizeOptions opts;
  opts.delimiter = schema.delimiter();
  opts.schema_fields = schema.num_columns();
  opts.max_fields = max_fields;
  return opts;
}

TEST(HotpathEquivalenceTest, RandomizedTokenizeAndParse) {
  Random rng(20240817);
  ThreadPool pool(3);
  for (int iter = 0; iter < 60; ++iter) {
    RandomCsv csv = MakeRandomCsv(&rng, iter);
    const std::string context = "iter " + std::to_string(iter);
    const TokenizeOptions topts = TokOpts(csv.schema);

    auto ref_map = reference::RefTokenizeChunk(csv.chunk, topts);
    auto map = TokenizeChunk(csv.chunk, topts);
    ASSERT_TRUE(ref_map.ok()) << context << ": " << ref_map.status().ToString();
    ASSERT_TRUE(map.ok()) << context << ": " << map.status().ToString();
    ExpectMapsEqual(*map, *ref_map, context);

    // Third tier: the speculative parallel tokenizer, with range boundaries
    // forced even on tiny chunks, must match the frozen reference too.
    ParallelTokenizeOptions ptopts;
    ptopts.pool = &pool;
    ptopts.num_ranges = 1 + rng.Uniform(6);
    ptopts.min_range_bytes = 1;
    SpeculationStats stats;
    auto par_map = ParallelTokenizeChunk(csv.chunk, topts, ptopts, &stats);
    ASSERT_TRUE(par_map.ok()) << context << ": "
                              << par_map.status().ToString();
    ExpectMapsEqual(*par_map, *ref_map, context + " (parallel)");

    auto ref_parsed =
        reference::RefParseChunk(csv.chunk, *ref_map, csv.schema, {});
    auto parsed = ParseChunk(csv.chunk, *map, csv.schema, {});
    ASSERT_TRUE(ref_parsed.ok())
        << context << ": " << ref_parsed.status().ToString();
    ASSERT_TRUE(parsed.ok()) << context << ": " << parsed.status().ToString();
    ExpectChunksEqual(*parsed, *ref_parsed, context);
  }
}

TEST(HotpathEquivalenceTest, RandomizedProjectionsAndSelectiveTokenize) {
  Random rng(99);
  for (int iter = 0; iter < 40; ++iter) {
    RandomCsv csv = MakeRandomCsv(&rng, iter);
    const std::string context = "iter " + std::to_string(iter);
    const size_t columns = csv.schema.num_columns();

    // Project a random prefix-closed subset and tokenize only up to the
    // last projected field (selective tokenizing).
    ParseOptions popts;
    const size_t keep = 1 + rng.Uniform(columns);
    for (size_t c = 0; c < keep; ++c) {
      if (rng.OneIn(2) || c + 1 == keep) popts.projected_columns.push_back(c);
    }
    const size_t max_fields = popts.projected_columns.back() + 1;
    const TokenizeOptions topts = TokOpts(csv.schema, max_fields);

    auto ref_map = reference::RefTokenizeChunk(csv.chunk, topts);
    auto map = TokenizeChunk(csv.chunk, topts);
    ASSERT_TRUE(ref_map.ok()) << context << ": " << ref_map.status().ToString();
    ASSERT_TRUE(map.ok()) << context << ": " << map.status().ToString();
    ExpectMapsEqual(*map, *ref_map, context);

    auto ref_parsed =
        reference::RefParseChunk(csv.chunk, *ref_map, csv.schema, popts);
    auto parsed = ParseChunk(csv.chunk, *map, csv.schema, popts);
    ASSERT_TRUE(ref_parsed.ok())
        << context << ": " << ref_parsed.status().ToString();
    ASSERT_TRUE(parsed.ok()) << context << ": " << parsed.status().ToString();
    ExpectChunksEqual(*parsed, *ref_parsed, context);
  }
}

TEST(HotpathEquivalenceTest, RandomizedPushdownFilters) {
  Random rng(4242);
  int exercised = 0;
  int filtered_all = 0;
  for (int iter = 0; iter < 80; ++iter) {
    RandomCsv csv = MakeRandomCsv(&rng, iter);
    // Find an integer column for the predicate. Doubles are excluded: the
    // generator produces values far outside int64 range, and the frozen
    // reference's double→int64 predicate cast is undefined for them
    // (production saturates; see PushdownOnNonFiniteDoublesMatchesEngine).
    size_t pc = csv.schema.num_columns();
    for (size_t c = 0; c < csv.schema.num_columns(); ++c) {
      const FieldType t = csv.schema.column(c).type;
      if (t == FieldType::kUint32 || t == FieldType::kInt64) {
        pc = c;
        break;
      }
    }
    if (pc == csv.schema.num_columns()) continue;
    ++exercised;

    ParseOptions popts;
    popts.pushdown = PushdownFilter{};
    popts.pushdown->column = pc;
    switch (rng.Uniform(3)) {
      case 0:  // passes everything
        popts.pushdown->min_value = INT64_MIN;
        popts.pushdown->max_value = INT64_MAX;
        break;
      case 1:  // filters everything (empty range)
        popts.pushdown->min_value = 1;
        popts.pushdown->max_value = 0;
        ++filtered_all;
        break;
      default: {  // arbitrary band
        const int64_t a = static_cast<int64_t>(rng.NextUint64());
        const int64_t b = static_cast<int64_t>(rng.NextUint64());
        popts.pushdown->min_value = std::min(a, b);
        popts.pushdown->max_value = std::max(a, b);
        break;
      }
    }

    const std::string context = "iter " + std::to_string(iter);
    const TokenizeOptions topts = TokOpts(csv.schema);
    auto map = TokenizeChunk(csv.chunk, topts);
    ASSERT_TRUE(map.ok()) << context;

    auto ref_parsed =
        reference::RefParseChunk(csv.chunk, *map, csv.schema, popts);
    auto parsed = ParseChunk(csv.chunk, *map, csv.schema, popts);
    ASSERT_TRUE(ref_parsed.ok())
        << context << ": " << ref_parsed.status().ToString();
    ASSERT_TRUE(parsed.ok()) << context << ": " << parsed.status().ToString();
    ExpectChunksEqual(*parsed, *ref_parsed, context);
  }
  EXPECT_GT(exercised, 20);
  EXPECT_GT(filtered_all, 5);
}

// Printable form of a field for failure messages (it may hold NUL/0xFF).
std::string Escaped(std::string_view text) {
  std::string out;
  for (unsigned char ch : text) {
    if (ch >= 0x20 && ch < 0x7F) {
      out.push_back(static_cast<char>(ch));
    } else {
      out += "\\x" + std::string(1, "0123456789ABCDEF"[ch >> 4]) +
             "0123456789ABCDEF"[ch & 15];
    }
  }
  return out;
}

// Tokenizes `chunk` and requires production ParseChunk to agree with the
// frozen reference: the same chunk, or the same error string.
void ExpectParseMatchesReference(const TextChunk& chunk, const Schema& schema,
                                 const ParseOptions& popts,
                                 const std::string& context) {
  auto map = TokenizeChunk(chunk, TokOpts(schema));
  ASSERT_TRUE(map.ok()) << context << ": " << map.status().ToString();
  auto want = reference::RefParseChunk(chunk, *map, schema, popts);
  auto got = ParseChunk(chunk, *map, schema, popts);
  ASSERT_EQ(got.ok(), want.ok())
      << context << ": want " << want.status().ToString() << ", got "
      << got.status().ToString();
  if (want.ok()) {
    ExpectChunksEqual(*got, *want, context);
  } else {
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << context;
  }
}

// Integer fields aimed at the SWAR kernel's edges and its fallback.
std::vector<std::string> IntegerEdgeFields() {
  std::vector<std::string> fields = {
      "4294967295", "4294967296", "9223372036854775807",
      "-9223372036854775807", "+9223372036854775807", "-9223372036854775808",
      "9223372036854775808", "-9223372036854775809", "18446744073709551616",
      "+", "-", "+-1", "-+1", "--1", "++1", "", "-0", "+0", "0"};
  const std::string digits = "98765432109876543210";
  for (size_t n = 1; n <= 20; ++n) {
    fields.push_back(ZeroPad("7", n));
    fields.push_back(std::string(n, '0'));
    fields.push_back("-" + ZeroPad("7", n));
  }
  for (size_t n = 15; n <= 17; ++n) {
    fields.push_back(digits.substr(0, n));
    fields.push_back("-" + digits.substr(0, n - 1));
    fields.push_back("+" + digits.substr(0, n - 1));
  }
  static const char kBad[] = {'/', ':', ' ', '\0', '\xFF'};
  for (size_t n = 1; n <= 17; ++n) {
    for (size_t p = 0; p < n; ++p) {
      for (char bad : kBad) {
        std::string f = digits.substr(0, n);
        f[p] = bad;
        fields.push_back(f);
        fields.push_back("-" + f);
      }
    }
  }
  return fields;
}

TEST(HotpathEquivalenceTest, HandcraftedEdgeCases) {
  struct Case {
    const char* name;
    const char* data;
  };
  const Case cases[] = {
      {"empty fields", ",,\n,,\n"},
      {"crlf", "a,b,c\r\nd,e,f\r\n"},
      {"unterminated last line", "x,y,z\np,q,r"},
      {"single row single field", "hello"},
      {"trailing empty field", "a,b,\n"},
      {"empty chunk", ""},
  };
  std::vector<ColumnDef> defs(3);
  for (size_t c = 0; c < 3; ++c) {
    defs[c] = {"s" + std::to_string(c), FieldType::kString};
  }
  for (const Case& tc : cases) {
    const size_t columns = std::string_view(tc.data).empty() ? 3
                           : std::string(tc.data).find(',') == std::string::npos
                               ? 1
                               : 3;
    Schema schema(std::vector<ColumnDef>(defs.begin(), defs.begin() + columns));
    TextChunk chunk = MakeTextChunk(tc.data);
    const TokenizeOptions topts = TokOpts(schema);

    auto ref_map = reference::RefTokenizeChunk(chunk, topts);
    auto map = TokenizeChunk(chunk, topts);
    ASSERT_TRUE(ref_map.ok()) << tc.name;
    ASSERT_TRUE(map.ok()) << tc.name;
    ExpectMapsEqual(*map, *ref_map, tc.name);

    auto ref_parsed = reference::RefParseChunk(chunk, *ref_map, schema, {});
    auto parsed = ParseChunk(chunk, *map, schema, {});
    ASSERT_TRUE(ref_parsed.ok()) << tc.name;
    ASSERT_TRUE(parsed.ok()) << tc.name;
    ExpectChunksEqual(*parsed, *ref_parsed, tc.name);
  }

  // Integer fields: at the chunk's first byte (inside the kernel's 16-byte
  // readable window, so the fallback runs), mid-chunk behind a CRLF-ended
  // padding row (the kernel runs), and as the final field of an
  // unterminated last line. Each is also pushed down and filtered against.
  const std::string pad = "0000000000000001,2\r\n";
  const PushdownFilter filters[] = {{0, INT64_MIN, INT64_MAX},
                                    {0, 0, 1000},
                                    {0, 1, 0},
                                    {1, INT64_MIN, INT64_MAX},
                                    {1, -1000, 0}};
  for (FieldType type : {FieldType::kUint32, FieldType::kInt64}) {
    const Schema schema({{"a", type}, {"b", type}});
    for (const std::string& field : IntegerEdgeFields()) {
      const std::string layouts[][2] = {
          {"start", field + ",5\n6,7\n"},
          {"middle", pad + "8," + field + "\r\n9,10\n"},
          {"unterminated", pad + "3," + field},
      };
      for (const auto& [where, data] : layouts) {
        const std::string context = std::string(FieldTypeName(type)) + " '" +
                                    Escaped(field) + "' " + where;
        const TextChunk chunk = MakeTextChunk(data, 3);
        ExpectParseMatchesReference(chunk, schema, {}, context);
        for (const PushdownFilter& filter : filters) {
          ParseOptions popts;
          popts.pushdown = filter;
          ExpectParseMatchesReference(
              chunk, schema, popts,
              context + " pushdown col " + std::to_string(filter.column));
        }
      }
    }
  }
}

TEST(HotpathEquivalenceTest, PushdownOnNonFiniteDoublesMatchesEngine) {
  // The double→int64 predicate conversion saturates (NaN → 0, out of range
  // → INT64_MIN/MAX), so push-down keeps exactly the rows the engine's
  // range predicate keeps on the unfiltered chunk. Row r's id is 2^r, so
  // the summed ids name the surviving row set.
  const char* const values[] = {"inf", "-inf",   "nan",  "1e300", "-1e300",
                                "0",   "-2.5",   "7.9",  "-nan",  "9.3e18",
                                "-9.3e18", "1e-300"};
  std::string data;
  for (size_t r = 0; r < std::size(values); ++r) {
    data += std::to_string(1u << r) + "," + values[r] + "\n";
  }
  const TextChunk chunk = MakeTextChunk(data);
  const Schema schema({{"id", FieldType::kUint32}, {"d", FieldType::kDouble}});
  auto map = TokenizeChunk(chunk, TokOpts(schema));
  ASSERT_TRUE(map.ok());
  auto full = ParseChunk(chunk, *map, schema, {});
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  const std::pair<int64_t, int64_t> ranges[] = {
      {INT64_MIN, INT64_MAX}, {INT64_MAX, INT64_MAX}, {INT64_MIN, INT64_MIN},
      {0, 0},                 {-5, 5},                {1, INT64_MAX},
      {INT64_MIN, -1}};
  for (const auto& [lo, hi] : ranges) {
    const std::string context =
        "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    QuerySpec spec;
    spec.sum_columns = {0};
    spec.predicate.range = RangePredicate{1, lo, hi};
    QueryExecutor engine(spec);
    ASSERT_TRUE(engine.Consume(*full).ok()) << context;
    const QueryResult want = engine.Finish();

    ParseOptions popts;
    popts.pushdown = PushdownFilter{1, lo, hi};
    auto filtered = ParseChunk(chunk, *map, schema, popts);
    ASSERT_TRUE(filtered.ok()) << context;
    uint64_t ids = 0;
    for (uint32_t id : filtered->column(0).AsUint32()) ids += id;
    EXPECT_EQ(filtered->num_rows(), want.rows_matched) << context;
    EXPECT_EQ(ids, want.total_sum) << context;
  }
}

TEST(HotpathEquivalenceTest, TokenizeErrorsMatchReference) {
  std::vector<ColumnDef> defs(3);
  for (size_t c = 0; c < 3; ++c) defs[c] = {"c", FieldType::kString};
  const Schema schema(defs);
  const TokenizeOptions topts = TokOpts(schema);
  for (const char* data : {"a,b\n", "a,b,c,d\n", "ok,ok,ok\nshort\n"}) {
    TextChunk chunk = MakeTextChunk(data, 5);
    auto ref_map = reference::RefTokenizeChunk(chunk, topts);
    auto map = TokenizeChunk(chunk, topts);
    ASSERT_FALSE(ref_map.ok()) << data;
    ASSERT_FALSE(map.ok()) << data;
    EXPECT_EQ(map.status().ToString(), ref_map.status().ToString()) << data;
  }
}

TEST(HotpathEquivalenceTest, SingleParseErrorMatchesReference) {
  // One malformed field in the chunk: row-major (reference) and
  // column-major (vectorized) discovery must report the same location and
  // message. Multi-error chunks may legitimately report different (valid)
  // first errors, so only single-error inputs are compared.
  std::vector<ColumnDef> defs = {{"a", FieldType::kUint32},
                                 {"b", FieldType::kInt64},
                                 {"c", FieldType::kDouble}};
  const Schema schema(defs);
  const TokenizeOptions topts = TokOpts(schema);
  const char* cases[] = {
      "1,2,3.5\n4,oops,6.5\n7,8,9.5\n",   // bad int64 mid-chunk
      "bad,2,3.5\n",                      // bad uint32 first row
      "1,2,\n",                           // empty double
      "99999999999,2,3.5\n",              // uint32 overflow
  };
  for (const char* data : cases) {
    TextChunk chunk = MakeTextChunk(data, 11);
    auto map = TokenizeChunk(chunk, topts);
    ASSERT_TRUE(map.ok()) << data;
    auto ref_parsed = reference::RefParseChunk(chunk, *map, schema, {});
    auto parsed = ParseChunk(chunk, *map, schema, {});
    ASSERT_FALSE(ref_parsed.ok()) << data;
    ASSERT_FALSE(parsed.ok()) << data;
    EXPECT_EQ(parsed.status().ToString(), ref_parsed.status().ToString())
        << data;
  }
}

TEST(HotpathEquivalenceTest, QuotedParallelMatchesSequential) {
  // The scalar reference predates quoting, so the quoted dialect's two live
  // tiers (sequential FSM, speculative parallel) are compared against each
  // other — including quotes straddling the forced range boundaries.
  Random rng(31337);
  ThreadPool pool(3);
  const RecordDialect dialect{true, '"'};
  for (int iter = 0; iter < 40; ++iter) {
    const size_t columns = 1 + rng.Uniform(5);
    const size_t rows = 1 + rng.Uniform(60);
    std::string data;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < columns; ++c) {
        if (c > 0) data.push_back(',');
        data.push_back('"');
        const size_t len = rng.Uniform(8);
        for (size_t i = 0; i < len; ++i) {
          switch (rng.Uniform(5)) {
            case 0: data += "\"\""; break;
            case 1: data.push_back('\n'); break;
            case 2: data.push_back(','); break;
            default: data.push_back(static_cast<char>('a' + rng.Uniform(26)));
          }
        }
        data.push_back('"');
      }
      data.push_back('\n');
    }
    std::vector<uint32_t> newlines;
    FindRecordNewlines(data.data(), 0, data.size(), dialect, false, &newlines);
    std::vector<uint32_t> starts{0};
    for (uint32_t nl : newlines) {
      if (nl + 1 < data.size()) starts.push_back(nl + 1);
    }
    TextChunk chunk = MakeTextChunk(std::move(data), std::move(starts), iter);
    ASSERT_EQ(chunk.num_rows(), rows);

    std::vector<ColumnDef> defs(columns);
    for (size_t c = 0; c < columns; ++c) {
      defs[c] = {"s" + std::to_string(c), FieldType::kString};
    }
    const Schema schema(defs);
    TokenizeOptions topts = TokOpts(schema);
    topts.quoted = true;

    const std::string context = "iter " + std::to_string(iter);
    auto want = TokenizeChunk(chunk, topts);
    ASSERT_TRUE(want.ok()) << context << ": " << want.status().ToString();

    ParallelTokenizeOptions ptopts;
    ptopts.pool = &pool;
    ptopts.num_ranges = 2 + rng.Uniform(6);
    ptopts.min_range_bytes = 1;
    SpeculationStats stats;
    auto got = ParallelTokenizeChunk(chunk, topts, ptopts, &stats);
    ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
    ExpectMapsEqual(*got, *want, context);

    // And the parsed chunks (doubled quotes collapsed) stay identical.
    ParseOptions popts;
    popts.unescape_quotes = true;
    auto want_parsed = ParseChunk(chunk, *want, schema, popts);
    auto got_parsed = ParseChunk(chunk, *got, schema, popts);
    ASSERT_TRUE(want_parsed.ok()) << context;
    ASSERT_TRUE(got_parsed.ok()) << context;
    ExpectChunksEqual(*got_parsed, *want_parsed, context);
  }
}

TEST(HotpathEquivalenceTest, RecycledBuffersProduceIdenticalOutput) {
  Random rng(777);
  ChunkBufferPool pool;
  for (int iter = 0; iter < 20; ++iter) {
    RandomCsv csv = MakeRandomCsv(&rng, iter);
    const std::string context = "iter " + std::to_string(iter);
    const TokenizeOptions topts = TokOpts(csv.schema);
    auto map = TokenizeChunk(csv.chunk, topts);
    ASSERT_TRUE(map.ok()) << context;

    auto fresh = ParseChunk(csv.chunk, *map, csv.schema, {});
    ASSERT_TRUE(fresh.ok()) << context;

    ParseOptions recycled_opts;
    recycled_opts.recycler = &pool;
    auto recycled = ParseChunk(csv.chunk, *map, csv.schema, recycled_opts);
    ASSERT_TRUE(recycled.ok()) << context;
    ExpectChunksEqual(*recycled, *fresh, context);
    // Return the buffers so later iterations genuinely reuse them.
    recycled->ReleaseBuffersTo(&pool);
  }
}

// Hands out the pool's buffers with every byte of their capacity
// overwritten by garbage, so output that read a slot or value it never
// wrote would differ from the reference.
class GarbageFilledSource : public ColumnBufferSource {
 public:
  explicit GarbageFilledSource(ChunkBufferPool* pool) : pool_(pool) {}

  std::vector<uint8_t> AcquireFixed(size_t min_bytes) override {
    return Soiled(pool_->AcquireFixed(min_bytes), uint8_t{0xA5});
  }
  std::string AcquireString(size_t min_bytes) override {
    return Soiled(pool_->AcquireString(min_bytes), '\xA5');
  }
  std::vector<uint32_t> AcquireOffsets(size_t min_count) override {
    return Soiled(pool_->AcquireOffsets(min_count), 0xDEADBEEFu);
  }
  void ReleaseFixed(std::vector<uint8_t> buffer) override {
    pool_->ReleaseFixed(std::move(buffer));
  }
  void ReleaseString(std::string buffer) override {
    pool_->ReleaseString(std::move(buffer));
  }
  void ReleaseOffsets(std::vector<uint32_t> buffer) override {
    pool_->ReleaseOffsets(std::move(buffer));
  }

 private:
  template <typename Buffer, typename Value>
  static Buffer Soiled(Buffer buffer, Value garbage) {
    buffer.assign(buffer.capacity(), garbage);
    buffer.clear();
    return buffer;
  }

  ChunkBufferPool* const pool_;
};

TEST(HotpathEquivalenceTest, GarbageFilledRecycledBuffersMatchReference) {
  Random rng(4242);
  ChunkBufferPool pool;
  GarbageFilledSource source(&pool);
  ThreadPool workers(2);
  for (int iter = 0; iter < 40; ++iter) {
    RandomCsv csv = MakeRandomCsv(&rng, iter);
    const std::string context = "iter " + std::to_string(iter);
    TokenizeOptions topts = TokOpts(csv.schema);
    auto ref_map = reference::RefTokenizeChunk(csv.chunk, topts);
    ASSERT_TRUE(ref_map.ok()) << context;
    auto ref_parsed =
        reference::RefParseChunk(csv.chunk, *ref_map, csv.schema, {});
    ASSERT_TRUE(ref_parsed.ok()) << context;
    topts.recycler = &source;

    // Sequential and parallel TOKENIZE into recycled slot arrays.
    auto map = TokenizeChunk(csv.chunk, topts);
    ASSERT_TRUE(map.ok()) << context;
    ExpectMapsEqual(*map, *ref_map, context);
    ParallelTokenizeOptions ptopts;
    ptopts.pool = &workers;
    ptopts.num_ranges = 1 + rng.Uniform(5);
    ptopts.min_range_bytes = 1;
    auto par_map = ParallelTokenizeChunk(csv.chunk, topts, ptopts, nullptr);
    ASSERT_TRUE(par_map.ok()) << context;
    ExpectMapsEqual(*par_map, *ref_map, context + " (parallel)");

    // Extending a selective map also writes a recycled array.
    if (csv.schema.num_columns() > 1) {
      TokenizeOptions narrow = topts;
      narrow.max_fields = 1 + rng.Uniform(csv.schema.num_columns() - 1);
      auto partial = TokenizeChunk(csv.chunk, narrow);
      ASSERT_TRUE(partial.ok()) << context;
      auto extended = ExtendTokenizeMap(csv.chunk, *partial, topts);
      ASSERT_TRUE(extended.ok()) << context;
      ExpectMapsEqual(*extended, *ref_map, context + " (extended)");
      pool.ReleaseOffsets(partial->ReleaseSlots());
      pool.ReleaseOffsets(extended->ReleaseSlots());
    }

    // PARSE into recycled column buffers.
    ParseOptions popts;
    popts.recycler = &source;
    auto parsed = ParseChunk(csv.chunk, *map, csv.schema, popts);
    ASSERT_TRUE(parsed.ok()) << context;
    ExpectChunksEqual(*parsed, *ref_parsed, context);

    // Everything goes home to be soiled and handed out again.
    pool.ReleaseOffsets(map->ReleaseSlots());
    pool.ReleaseOffsets(par_map->ReleaseSlots());
    parsed->ReleaseBuffersTo(&pool);
  }
  EXPECT_GT(pool.hits(), 0u);
}

}  // namespace
}  // namespace scanraw
