// Tests for the speculative intra-file parallel TOKENIZE
// (format/parallel_chunker): the caller-participating ParallelFor, the
// quote-aware record scanner, parallel-vs-sequential byte equivalence over
// randomized inputs (with range boundaries forced into adversarial spots),
// seeded misspeculation + repair, and the quoted dialect end to end through
// the chunker, tokenizer, and parser against generated ground truth.

#include <atomic>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/csv_generator.h"
#include "format/parallel_chunker.h"
#include "format/parser.h"
#include "format/schema.h"
#include "format/text_chunk.h"
#include "format/tokenizer.h"
#include "obs/telemetry.h"
#include "pipeline/thread_pool.h"
#include "scanraw/raw_reader.h"
#include "scanraw/scanraw_manager.h"

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

TEST(ParallelForTest, RunsEveryIndexOnceWithAndWithoutPool) {
  for (size_t workers : {size_t{0}, size_t{1}, size_t{3}}) {
    ThreadPool pool(workers);
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{100}}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h = 0;
      ParallelFor(&pool, n, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " n=" << n;
      }
    }
  }
  // Null pool degrades to an inline loop.
  std::atomic<size_t> sum{0};
  ParallelFor(nullptr, 10, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ParallelForTest, FanOutCountsTheCallersRanges) {
  // No workers: the caller runs every range.
  ThreadPool empty(0);
  FanOut fan_out = ParallelFor(&empty, 12, [](size_t) {});
  EXPECT_EQ(fan_out.by_caller, 12u);
  EXPECT_EQ(fan_out.by_helpers, 0u);

  // The only worker is held busy: the helper task queues behind the
  // blocker, and the caller has claimed every range before it runs.
  ThreadPool busy(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> started;
  busy.Submit([&started, released] {
    started.set_value();
    released.wait();
  });
  started.get_future().wait();
  std::atomic<size_t> ran{0};
  fan_out = ParallelFor(&busy, 12, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 12u);
  EXPECT_EQ(fan_out.by_caller, 12u);
  EXPECT_EQ(fan_out.by_helpers, 0u);
  release.set_value();
  busy.WaitIdle();

  // With idle helpers the split still adds up.
  ThreadPool idle(3);
  fan_out = ParallelFor(&idle, 40, [](size_t) {});
  EXPECT_EQ(fan_out.by_caller + fan_out.by_helpers, 40u);
}

TEST(ParallelForTest, TokenizeStatsCarryTheFanOut) {
  CsvSpec spec;
  spec.num_rows = 4000;
  spec.num_columns = 6;
  spec.seed = 3;
  const std::string path = testing::TempDir() + "/fan_out.csv";
  ASSERT_TRUE(GenerateCsvFile(path, spec).ok());
  auto chunker = SequentialChunker::Open(path, spec.num_rows);
  ASSERT_TRUE(chunker.ok());
  auto chunk = (*chunker)->Next();
  ASSERT_TRUE(chunk.ok() && chunk->has_value());
  TokenizeOptions topts;
  topts.schema_fields = spec.num_columns;
  ThreadPool pool(2);
  ParallelTokenizeOptions ptopts;
  ptopts.pool = &pool;
  ptopts.num_ranges = 8;
  ptopts.min_range_bytes = 1;
  SpeculationStats stats;
  ASSERT_TRUE(ParallelTokenizeChunk(**chunk, topts, ptopts, &stats).ok());
  EXPECT_EQ(stats.ranges, 8u);
  EXPECT_EQ(stats.fan_out.by_caller + stats.fan_out.by_helpers, 8u);
}

TEST(RecordScanTest, QuotedNewlinesDoNotTerminateRecords) {
  const RecordDialect quoted{true, '"'};
  struct Case {
    const char* data;
    std::vector<uint32_t> want;
    bool end_inside;
  };
  const Case cases[] = {
      {"a,b\nc,d\n", {3, 7}, false},
      {"a,\"x\ny\",b\nc\n", {9, 11}, false},            // quoted newline
      {"\"a\"\"b\",c\n", {8}, false},                   // doubled quote
      {"\"open\n", {}, true},                           // unterminated quote
      {"\"\"\n\"\"\"\n\"\n", {2, 8}, false},            // pathological quotes
      {"", {}, false},
  };
  for (const Case& tc : cases) {
    std::vector<uint32_t> got;
    const bool inside = FindRecordNewlines(
        tc.data, 0, std::string_view(tc.data).size(), quoted,
        /*start_inside=*/false, &got);
    EXPECT_EQ(got, tc.want) << tc.data;
    EXPECT_EQ(inside, tc.end_inside) << tc.data;
  }

  // start_inside flips the interpretation: the leading newline is quoted.
  std::vector<uint32_t> got;
  const bool inside = FindRecordNewlines("x\ny\"\nz\n", 0, 7, quoted,
                                         /*start_inside=*/true, &got);
  EXPECT_EQ(got, (std::vector<uint32_t>{4, 6}));
  EXPECT_FALSE(inside);
}

std::string RandomQuotedText(Random* rng, size_t approx_bytes) {
  std::string data;
  while (data.size() < approx_bytes) {
    const size_t cols = 1 + rng->Uniform(4);
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) data.push_back(',');
      if (rng->OneIn(2)) {
        data.push_back('"');
        const size_t len = rng->Uniform(9);
        for (size_t i = 0; i < len; ++i) {
          switch (rng->Uniform(6)) {
            case 0: data += "\"\""; break;  // escaped quote
            case 1: data.push_back('\n'); break;
            case 2: data.push_back(','); break;
            default: data.push_back(static_cast<char>('a' + rng->Uniform(26)));
          }
        }
        data.push_back('"');
      } else {
        const size_t len = rng->Uniform(6);
        for (size_t i = 0; i < len; ++i) {
          data.push_back(static_cast<char>('a' + rng->Uniform(26)));
        }
      }
    }
    data.push_back('\n');
  }
  return data;
}

TEST(RecordScanTest, ParallelMatchesSequentialOnRandomizedInputs) {
  Random rng(20260808);
  ThreadPool pool(3);
  const RecordDialect quoted{true, '"'};
  for (int iter = 0; iter < 60; ++iter) {
    const std::string data = RandomQuotedText(&rng, 64 + rng.Uniform(2000));
    const std::string context = "iter " + std::to_string(iter);

    std::vector<uint32_t> want;
    const bool want_inside = FindRecordNewlines(
        data.data(), 0, data.size(), quoted, /*start_inside=*/false, &want);

    RecordScanOptions sopts;
    sopts.dialect = quoted;
    sopts.pool = &pool;
    sopts.num_ranges = 1 + rng.Uniform(8);
    sopts.min_range_bytes = 1;  // force boundaries into tiny inputs
    SpeculationStats stats;
    std::vector<uint32_t> got;
    const bool got_inside = ParallelFindRecordNewlines(
        data.data(), 0, data.size(), /*start_inside=*/false, sopts, &stats,
        &got);
    EXPECT_EQ(got, want) << context;
    EXPECT_EQ(got_inside, want_inside) << context;
    EXPECT_GE(stats.ranges, 1u) << context;
  }
}

TEST(RecordScanTest, SeededMisspeculationIsCountedAndRepaired) {
  // A quoted field that spans the midpoint of the buffer: with two ranges,
  // range 1 starts inside the quote but speculates outside, sees the quoted
  // newline as a record boundary, and must be repaired after the parity
  // fold exposes the misspeculation.
  std::string data = "a,b\nc,\"";
  data.append(40, 'x');
  data += "\nstill quoted";
  data.append(40, 'y');
  data += "\",tail\nlast,row\n";

  const RecordDialect quoted{true, '"'};
  std::vector<uint32_t> want;
  FindRecordNewlines(data.data(), 0, data.size(), quoted,
                     /*start_inside=*/false, &want);
  ASSERT_EQ(want.size(), 3u);  // the quoted newline terminates nothing

  ThreadPool pool(2);
  RecordScanOptions sopts;
  sopts.dialect = quoted;
  sopts.pool = &pool;
  sopts.num_ranges = 2;
  sopts.min_range_bytes = 1;
  SpeculationStats stats;
  std::vector<uint32_t> got;
  ParallelFindRecordNewlines(data.data(), 0, data.size(),
                             /*start_inside=*/false, sopts, &stats, &got);
  EXPECT_EQ(got, want);
  EXPECT_EQ(stats.ranges, 2u);
  EXPECT_GE(stats.misspeculations, 1u);
  EXPECT_GT(stats.repair_bytes, 0u);
}

TEST(RecordScanTest, UnquotedDialectNeverMisspeculates) {
  Random rng(7);
  ThreadPool pool(2);
  RecordScanOptions sopts;
  sopts.pool = &pool;
  sopts.min_range_bytes = 1;
  for (int iter = 0; iter < 10; ++iter) {
    const std::string data = RandomQuotedText(&rng, 500);
    std::vector<uint32_t> want;
    FindLineStarts(data, &want);  // plain newline semantics

    SpeculationStats stats;
    std::vector<uint32_t> newlines;
    ParallelFindRecordNewlines(data.data(), 0, data.size(),
                               /*start_inside=*/false, sopts, &stats,
                               &newlines);
    EXPECT_EQ(stats.misspeculations, 0u);
    std::vector<uint32_t> starts;
    starts.push_back(0);
    for (uint32_t nl : newlines) {
      if (nl + 1 < data.size()) starts.push_back(nl + 1);
    }
    EXPECT_EQ(starts, want) << "iter " << iter;
  }
}

TokenizeOptions TokOpts(const Schema& schema, bool quoted) {
  TokenizeOptions opts;
  opts.delimiter = schema.delimiter();
  opts.schema_fields = schema.num_columns();
  opts.quoted = quoted;
  return opts;
}

std::string RandomUnquotedCsv(Random* rng, size_t cols, size_t rows) {
  std::string data;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) data.push_back(',');
      const size_t len = rng->Uniform(10);
      for (size_t i = 0; i < len; ++i) {
        data.push_back(static_cast<char>('a' + rng->Uniform(26)));
      }
    }
    data.push_back('\n');
  }
  return data;
}

TEST(ParallelTokenizeTest, MatchesSequentialOnRandomizedInputs) {
  Random rng(515);
  ThreadPool pool(3);
  for (int iter = 0; iter < 40; ++iter) {
    const size_t cols = 1 + rng.Uniform(8);
    const size_t rows = rng.Uniform(200);
    const bool quoted = rng.OneIn(2);
    std::string data;
    std::vector<uint32_t> starts;
    const Schema schema = Schema::AllUint32(cols, ',');
    if (quoted) {
      // Quoted text needs quote-aware record starts.
      data = RandomQuotedText(&rng, 32 + rng.Uniform(1500));
      std::vector<uint32_t> newlines;
      FindRecordNewlines(data.data(), 0, data.size(), RecordDialect{true, '"'},
                         false, &newlines);
      starts.push_back(0);
      for (uint32_t nl : newlines) {
        if (nl + 1 < data.size()) starts.push_back(nl + 1);
      }
    } else {
      data = RandomUnquotedCsv(&rng, cols, rows);
      if (data.empty()) continue;
      FindLineStarts(data, &starts);
    }
    TextChunk chunk = MakeTextChunk(std::move(data), std::move(starts), iter);

    TokenizeOptions topts;
    topts.delimiter = ',';
    topts.quoted = quoted;
    // Quoted random text has ragged widths; oversized schema plus max_fields
    // keeps the tokenizer from rejecting rows while still exercising spans.
    topts.schema_fields = quoted ? 64 : cols;
    topts.max_fields = quoted ? 1 : 0;

    auto want = TokenizeChunk(chunk, topts);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    ParallelTokenizeOptions ptopts;
    ptopts.pool = &pool;
    ptopts.num_ranges = 1 + rng.Uniform(8);
    ptopts.min_range_bytes = 1;
    SpeculationStats stats;
    auto got = ParallelTokenizeChunk(chunk, topts, ptopts, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectMapsEqual(*got, *want, "iter " + std::to_string(iter));
    EXPECT_GE(stats.ranges, 1u);
  }
}

TEST(ParallelTokenizeTest, FirstErrorMatchesSequential) {
  // Malformed rows in several ranges: the parallel tokenizer must surface
  // the same first error the sequential pass reports.
  std::string data;
  for (int r = 0; r < 50; ++r) {
    data += (r == 17 || r == 41) ? "a,b\n" : "a,b,c\n";
  }
  TextChunk chunk = MakeTextChunk(std::move(data), 9);
  const Schema schema = Schema::AllUint32(3, ',');
  const TokenizeOptions topts = TokOpts(schema, false);

  auto want = TokenizeChunk(chunk, topts);
  ASSERT_FALSE(want.ok());

  ThreadPool pool(3);
  ParallelTokenizeOptions ptopts;
  ptopts.pool = &pool;
  ptopts.num_ranges = 4;
  ptopts.min_range_bytes = 1;
  SpeculationStats stats;
  auto got = ParallelTokenizeChunk(chunk, topts, ptopts, &stats);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().ToString(), want.status().ToString());
}

TEST(ParallelTokenizeTest, RangeSpanCallbackFiresPerRange) {
  ThreadPool pool(2);
  Random rng(3);
  TextChunk chunk = MakeTextChunk(RandomUnquotedCsv(&rng, 4, 64));
  const TokenizeOptions topts = TokOpts(Schema::AllUint32(4, ','), false);
  ParallelTokenizeOptions ptopts;
  ptopts.pool = &pool;
  ptopts.num_ranges = 4;
  ptopts.min_range_bytes = 1;
  std::atomic<size_t> spans{0};
  ptopts.range_span = [&](size_t, int64_t, int64_t dur) {
    EXPECT_GE(dur, 0);
    spans.fetch_add(1);
  };
  SpeculationStats stats;
  auto got = ParallelTokenizeChunk(chunk, topts, ptopts, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(spans.load(), stats.ranges);
  EXPECT_GE(spans.load(), 2u);
}

TEST(QuotedDialectTest, TokenizeAndParseRoundTrip) {
  // RFC-4180 features in one chunk: embedded delimiter, doubled-quote
  // escape, quoted newline, and a plain unquoted field in the same row.
  const std::string data =
      "1,\"a,b\",plain\n"
      "2,\"x\"\"y\",\"line\nbreak\"\n";
  const RecordDialect quoted{true, '"'};
  std::vector<uint32_t> newlines;
  FindRecordNewlines(data.data(), 0, data.size(), quoted, false, &newlines);
  std::vector<uint32_t> starts{0};
  for (uint32_t nl : newlines) {
    if (nl + 1 < data.size()) starts.push_back(nl + 1);
  }
  TextChunk chunk = MakeTextChunk(data, std::move(starts));
  ASSERT_EQ(chunk.num_rows(), 2u);

  std::vector<ColumnDef> defs = {{"id", FieldType::kUint32},
                                 {"s1", FieldType::kString},
                                 {"s2", FieldType::kString}};
  const Schema schema(defs);
  auto map = TokenizeChunk(chunk, TokOpts(schema, /*quoted=*/true));
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  EXPECT_TRUE(map->explicit_ends());

  ParseOptions popts;
  popts.unescape_quotes = true;
  auto parsed = ParseChunk(chunk, *map, schema, popts);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->column(0).AsUint32()[0], 1u);
  EXPECT_EQ(parsed->column(0).AsUint32()[1], 2u);
  EXPECT_EQ(parsed->column(1).StringAt(0), "a,b");
  EXPECT_EQ(parsed->column(2).StringAt(0), "plain");
  EXPECT_EQ(parsed->column(1).StringAt(1), "x\"y");
  EXPECT_EQ(parsed->column(2).StringAt(1), "line\nbreak");
}

TEST(QuotedDialectTest, GeneratedFileRoundTripsThroughChunker) {
  const std::string path = testing::TempDir() + "/quoted_roundtrip.csv";
  CsvSpec spec;
  spec.num_rows = 700;
  spec.num_columns = 5;
  spec.quoted_columns = 2;
  spec.quoted_newline_one_in = 6;
  spec.seed = 99;
  auto info = GenerateCsvFile(path, spec);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_GT(info->quoted_newlines, 0u);
  const Schema schema = CsvSchema(spec);

  ThreadPool pool(2);
  const RecordDialect dialect{true, '"'};
  auto chunker = SequentialChunker::Open(path, /*chunk_rows=*/64, nullptr,
                                         nullptr, nullptr, dialect, &pool);
  ASSERT_TRUE(chunker.ok()) << chunker.status().ToString();

  TokenizeOptions topts = TokOpts(schema, /*quoted=*/true);
  ParseOptions popts;
  popts.unescape_quotes = true;
  uint64_t rows = 0;
  std::vector<uint64_t> sums(spec.num_columns, 0);
  while (true) {
    auto chunk = (*chunker)->Next();
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (!chunk->has_value()) break;

    ParallelTokenizeOptions ptopts;
    ptopts.pool = &pool;
    ptopts.min_range_bytes = 1;
    SpeculationStats stats;
    auto map = ParallelTokenizeChunk(**chunk, topts, ptopts, &stats);
    ASSERT_TRUE(map.ok()) << map.status().ToString();
    auto parsed = ParseChunk(**chunk, *map, schema, popts);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    rows += parsed->num_rows();
    for (size_t c = 0; c + spec.quoted_columns < spec.num_columns; ++c) {
      for (uint32_t v : parsed->column(c).AsUint32()) sums[c] += v;
    }
  }
  // Quoted newlines must not split records: row count and the numeric
  // ground-truth sums survive the round trip exactly.
  EXPECT_EQ(rows, spec.num_rows);
  for (size_t c = 0; c + spec.quoted_columns < spec.num_columns; ++c) {
    EXPECT_EQ(sums[c], info->column_sums[c]) << "column " << c;
  }
  EXPECT_GT((*chunker)->speculation().ranges, 0u);
}

// Full-stack: chunks big enough to split (>= 128 KB) must engage the
// parallel tier inside ScanRaw's TOKENIZE stage — visible as
// scanraw.tokenize.ranges exceeding the chunk count — while answers stay
// exact, and the frozen sequential tier (parallel_tokenize = false) must
// return the same sums without fanning out ranges.
TEST(ScanRawParallelTest, BigChunksEngageParallelTokenizeExactly) {
  const std::string path = testing::TempDir() + "/parallel_e2e.csv";
  CsvSpec spec;
  spec.num_rows = 30000;  // ~2.6 MB: two ~1.3 MB chunks
  spec.num_columns = 8;
  spec.seed = 17;
  auto info = GenerateCsvFile(path, spec);
  ASSERT_TRUE(info.ok());

  QuerySpec q;
  for (size_t c = 0; c < spec.num_columns; ++c) q.sum_columns.push_back(c);

  for (const bool parallel : {true, false}) {
    ScanRawManager::Config config;
    config.db_path = path + (parallel ? ".par.db" : ".seq.db");
    auto manager = ScanRawManager::Create(config);
    ASSERT_TRUE(manager.ok());
    ScanRawOptions options;
    options.policy = LoadPolicy::kExternalTables;
    options.num_workers = 2;
    options.chunk_rows = 16384;
    options.parallel_tokenize = parallel;
    ASSERT_TRUE(
        (*manager)->RegisterRawFile("t", path, CsvSchema(spec), options).ok());

    auto result = (*manager)->Query("t", q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_sum, info->total_sum);
    EXPECT_EQ(result->rows_scanned, spec.num_rows);

    const uint64_t ranges = (*manager)
                                ->telemetry()
                                ->metrics()
                                .GetCounter("scanraw.tokenize.ranges")
                                ->value();
    if (parallel) {
      EXPECT_GT(ranges, 2u);  // more ranges than chunks = real fan-out
    } else {
      EXPECT_EQ(ranges, 0u);
    }
  }
}

// Full-stack quoted dialect: quoted newlines in the raw file must not split
// records anywhere in the READ/TOKENIZE/PARSE pipeline, and the numeric
// ground truth must survive with the parallel tier on.
TEST(ScanRawParallelTest, QuotedFieldsEndToEnd) {
  const std::string path = testing::TempDir() + "/quoted_e2e.csv";
  CsvSpec spec;
  spec.num_rows = 5000;
  spec.num_columns = 6;
  spec.quoted_columns = 2;
  spec.quoted_newline_one_in = 7;
  spec.seed = 23;
  auto info = GenerateCsvFile(path, spec);
  ASSERT_TRUE(info.ok());
  ASSERT_GT(info->quoted_newlines, 0u);

  ScanRawManager::Config config;
  config.db_path = path + ".db";
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions options;
  options.policy = LoadPolicy::kExternalTables;
  options.num_workers = 2;
  options.chunk_rows = 512;
  options.quoted_fields = true;
  ASSERT_TRUE(
      (*manager)->RegisterRawFile("t", path, CsvSchema(spec), options).ok());

  QuerySpec q;
  const size_t numeric = spec.num_columns - spec.quoted_columns;
  for (size_t c = 0; c < numeric; ++c) q.sum_columns.push_back(c);
  auto result = (*manager)->Query("t", q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_scanned, spec.num_rows);
  uint64_t want_sum = 0;
  for (size_t c = 0; c < numeric; ++c) want_sum += info->column_sums[c];
  EXPECT_EQ(result->total_sum, want_sum);
}

}  // namespace
}  // namespace scanraw
