#include <gtest/gtest.h>

#include "datagen/jsonl_generator.h"
#include "format/json_tokenizer.h"
#include "format/parser.h"
#include "io/file.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/json_" + name;
}

std::string Field(const TextChunk& chunk, const PositionalMap& map, size_t r,
                  size_t f) {
  return std::string(chunk.data.substr(
      map.FieldStart(r, f), map.FieldEnd(r, f) - map.FieldStart(r, f)));
}

TEST(JsonTokenizerTest, FlatObjects) {
  Schema schema(std::vector<ColumnDef>{{"id", FieldType::kUint32},
                                       {"name", FieldType::kString},
                                       {"score", FieldType::kDouble}});
  TextChunk chunk = MakeTextChunk(
      "{\"id\":1,\"name\":\"alice\",\"score\":2.5}\n"
      "{\"id\":2,\"name\":\"bob\",\"score\":0.25}\n");
  auto map = TokenizeJsonChunk(chunk, schema);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  EXPECT_TRUE(map->explicit_ends());
  EXPECT_EQ(Field(chunk, *map, 0, 0), "1");
  EXPECT_EQ(Field(chunk, *map, 0, 1), "alice");
  EXPECT_EQ(Field(chunk, *map, 0, 2), "2.5");
  EXPECT_EQ(Field(chunk, *map, 1, 1), "bob");
}

TEST(JsonTokenizerTest, MembersInAnyOrderAndExtrasIgnored) {
  Schema schema(std::vector<ColumnDef>{{"a", FieldType::kUint32},
                                       {"b", FieldType::kUint32}});
  TextChunk chunk = MakeTextChunk(
      "{\"b\": 2, \"junk\": \"x\", \"a\": 1}\n"
      "{ \"a\" : 3 , \"b\" : 4 }\n");
  auto map = TokenizeJsonChunk(chunk, schema);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  EXPECT_EQ(Field(chunk, *map, 0, 0), "1");
  EXPECT_EQ(Field(chunk, *map, 0, 1), "2");
  EXPECT_EQ(Field(chunk, *map, 1, 0), "3");
  EXPECT_EQ(Field(chunk, *map, 1, 1), "4");
}

TEST(JsonTokenizerTest, ParseSharedWithDelimitedPath) {
  Schema schema(std::vector<ColumnDef>{{"n", FieldType::kInt64},
                                       {"s", FieldType::kString}});
  TextChunk chunk = MakeTextChunk("{\"n\":-42,\"s\":\"hello\"}\n");
  auto map = TokenizeJsonChunk(chunk, schema);
  ASSERT_TRUE(map.ok());
  auto binary = ParseChunk(chunk, *map, schema, ParseOptions{});
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  EXPECT_EQ(binary->column(0).AsInt64()[0], -42);
  EXPECT_EQ(binary->column(1).StringAt(0), "hello");
}

TEST(JsonTokenizerTest, Errors) {
  Schema schema(std::vector<ColumnDef>{{"a", FieldType::kUint32}});
  auto tokenize = [&](const std::string& line) {
    TextChunk chunk = MakeTextChunk(line + "\n");
    return TokenizeJsonChunk(chunk, schema).status();
  };
  EXPECT_TRUE(tokenize("not json").IsCorruption());
  EXPECT_TRUE(tokenize("{\"b\":1}").IsCorruption());        // missing member
  EXPECT_TRUE(tokenize("{\"a\":1").IsCorruption());         // unterminated
  EXPECT_TRUE(tokenize("{\"a\":}").IsCorruption());         // empty value
  EXPECT_TRUE(tokenize("{\"a\":1} x").IsCorruption());      // trailing data
  EXPECT_TRUE(tokenize("{\"a\":1 \"b\":2}").IsCorruption());  // missing comma
  EXPECT_EQ(tokenize("{\"a\":{\"x\":1}}").code(),
            StatusCode::kUnimplemented);  // nested
  EXPECT_EQ(tokenize("{\"a\":\"x\\n\"}").code(),
            StatusCode::kUnimplemented);  // escapes
}

TEST(JsonTokenizerTest, DuplicateKeyLastWins) {
  Schema schema(std::vector<ColumnDef>{{"a", FieldType::kUint32}});
  TextChunk chunk = MakeTextChunk("{\"a\":1,\"a\":2}\n");
  auto map = TokenizeJsonChunk(chunk, schema);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(Field(chunk, *map, 0, 0), "2");
}

TEST(JsonlGeneratorTest, MatchesCsvGroundTruth) {
  CsvSpec spec;
  spec.num_rows = 500;
  spec.num_columns = 4;
  spec.seed = 9;
  auto csv_info = GenerateCsvFile(TempPath("twin.csv"), spec);
  auto json_info = GenerateJsonlFile(TempPath("twin.jsonl"), spec);
  ASSERT_TRUE(csv_info.ok());
  ASSERT_TRUE(json_info.ok());
  // Identical value stream -> identical aggregates.
  EXPECT_EQ(csv_info->total_sum, json_info->total_sum);
  EXPECT_EQ(csv_info->column_sums, json_info->column_sums);
}

// End to end: ScanRaw over a JSONL file with speculative loading converges
// like the CSV path and produces identical results.
TEST(JsonScanRawTest, FullPipelineOverJsonl) {
  CsvSpec spec;
  spec.num_rows = 4000;
  spec.num_columns = 6;
  spec.seed = 13;
  const std::string path = TempPath("pipeline.jsonl");
  auto info = GenerateJsonlFile(path, spec);
  ASSERT_TRUE(info.ok());

  ScanRawManager::Config config;
  config.db_path = TempPath("pipeline.db");
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions options;
  options.raw_format = RawFormat::kJsonLines;
  options.num_workers = 2;
  options.chunk_rows = 500;
  options.cache_capacity_chunks = 4;
  ASSERT_TRUE(
      (*manager)->RegisterRawFile("j", path, CsvSchema(spec), options).ok());

  QuerySpec query;
  for (size_t c = 0; c < spec.num_columns; ++c) {
    query.sum_columns.push_back(c);
  }
  for (int q = 0; q < 6; ++q) {
    auto result = (*manager)->Query("j", query);
    ASSERT_TRUE(result.ok()) << "query " << q << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->total_sum, info->total_sum) << "query " << q;
    EXPECT_EQ(result->rows_scanned, spec.num_rows);
  }
  ScanRaw* op = (*manager)->GetOperator("j");
  if (op != nullptr) op->WaitForWrites();
  // Speculative loading converged over the sequence.
  EXPECT_DOUBLE_EQ((*manager)->catalog()->GetTable("j")->LoadedFraction(),
                   1.0);
}

TEST(JsonScanRawTest, MapCacheWorksForJson) {
  CsvSpec spec;
  spec.num_rows = 1000;
  spec.num_columns = 3;
  const std::string path = TempPath("mapcache.jsonl");
  auto info = GenerateJsonlFile(path, spec);
  ASSERT_TRUE(info.ok());
  ScanRawManager::Config config;
  config.db_path = TempPath("mapcache.db");
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions options;
  options.raw_format = RawFormat::kJsonLines;
  options.policy = LoadPolicy::kExternalTables;
  options.cache_capacity_chunks = 0;
  options.cache_positional_maps = true;
  options.num_workers = 2;
  options.chunk_rows = 250;
  ASSERT_TRUE(
      (*manager)->RegisterRawFile("j", path, CsvSchema(spec), options).ok());
  ScanRaw op("j", (*manager)->catalog(), (*manager)->storage(),
             (*manager)->arbiter(), nullptr, options);
  QuerySpec query;
  query.sum_columns = {0, 1, 2};
  ASSERT_TRUE(op.ExecuteQuery(query).ok());
  const int64_t after_first = op.profile().stages.chunks(obs::Stage::kTokenize);
  auto r2 = op.ExecuteQuery(query);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->total_sum, info->total_sum);
  // JSON maps are always complete, so the second scan reuses all of them.
  EXPECT_EQ(op.profile().stages.chunks(obs::Stage::kTokenize), after_first);
}

TEST(JsonScanRawTest, MalformedRowSurfacesCorruption) {
  const std::string path = TempPath("bad.jsonl");
  ASSERT_TRUE(WriteStringToFile(
                  path, "{\"C0\":1,\"C1\":2}\n{\"C0\":oops}\n")
                  .ok());
  ScanRawManager::Config config;
  config.db_path = TempPath("bad.db");
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions options;
  options.raw_format = RawFormat::kJsonLines;
  ASSERT_TRUE((*manager)
                  ->RegisterRawFile("j", path, Schema::AllUint32(2), options)
                  .ok());
  QuerySpec query;
  query.sum_columns = {0, 1};
  auto result = (*manager)->Query("j", query);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

}  // namespace
}  // namespace scanraw
