// Unit tests for the bench_compare regression gate (both directions) and
// the bench-artifact reader behind it.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "io/file.h"
#include "tools/bench_compare_lib.h"

namespace scanraw {
namespace {

constexpr char kBaselineJson[] =
    "{\"bench\":\"fig5_pipeline\","
    "\"headers\":[\"columns\",\"READ (ms)\",\"PARSE (ms)\"],"
    "\"rows\":[[\"2\",\"10.0\",\"20.0\"],[\"4\",\"30.0\",\"40.0\"]],"
    "\"extra\":{\"nested\":[1,2,{\"deep\":\"x\"}]}}";

TEST(BenchCompareTest, IdenticalArtifactsDoNotRegress) {
  auto baseline = ParseBenchJson(kBaselineJson);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->name, "fig5_pipeline");
  ASSERT_EQ(baseline->rows.size(), 2u);

  const BenchComparison comparison =
      CompareBenchTables(*baseline, *baseline, 5.0);
  EXPECT_FALSE(comparison.has_regression());
  EXPECT_EQ(comparison.deltas.size(), 4u);  // 2 rows x 2 numeric columns
  EXPECT_TRUE(comparison.unmatched.empty());
}

TEST(BenchCompareTest, SlowdownBeyondThresholdRegresses) {
  auto baseline = ParseBenchJson(kBaselineJson);
  ASSERT_TRUE(baseline.ok());
  BenchTable candidate = *baseline;
  candidate.rows[0][2] = "22.0";  // PARSE 20.0 -> 22.0 = +10%

  const BenchComparison at5 = CompareBenchTables(*baseline, candidate, 5.0);
  EXPECT_TRUE(at5.has_regression());
  int regressed = 0;
  for (const BenchDelta& d : at5.deltas) {
    if (d.regressed) {
      ++regressed;
      EXPECT_EQ(d.row_key, "2");
      EXPECT_EQ(d.column, "PARSE (ms)");
      EXPECT_NEAR(d.delta_pct, 10.0, 1e-6);
    }
  }
  EXPECT_EQ(regressed, 1);
  EXPECT_NE(at5.ToText().find("REGRESSION"), std::string::npos);

  // The same slowdown passes a looser gate.
  EXPECT_FALSE(CompareBenchTables(*baseline, candidate, 15.0)
                   .has_regression());
}

TEST(BenchCompareTest, ImprovementNeverRegresses) {
  auto baseline = ParseBenchJson(kBaselineJson);
  ASSERT_TRUE(baseline.ok());
  BenchTable candidate = *baseline;
  candidate.rows[0][1] = "1.0";  // READ 10.0 -> 1.0, a 90% improvement
  const BenchComparison comparison =
      CompareBenchTables(*baseline, candidate, 5.0);
  EXPECT_FALSE(comparison.has_regression());
  bool saw_improvement = false;
  for (const BenchDelta& d : comparison.deltas) {
    if (d.row_key == "2" && d.column == "READ (ms)") {
      saw_improvement = true;
      EXPECT_NEAR(d.delta_pct, -90.0, 1e-6);
    }
  }
  EXPECT_TRUE(saw_improvement);
}

TEST(BenchCompareTest, UnmatchedRowsAreReportedNotCompared) {
  auto baseline = ParseBenchJson(kBaselineJson);
  ASSERT_TRUE(baseline.ok());
  BenchTable candidate = *baseline;
  candidate.rows.pop_back();  // candidate lost row "4"
  candidate.rows.push_back({"8", "1.0", "2.0"});  // and gained row "8"

  const BenchComparison comparison =
      CompareBenchTables(*baseline, candidate, 5.0);
  EXPECT_FALSE(comparison.has_regression());
  ASSERT_EQ(comparison.unmatched.size(), 2u);
}

TEST(BenchCompareTest, NonNumericCellsAreIgnored) {
  const char* json =
      "{\"bench\":\"t\",\"headers\":[\"key\",\"note\",\"ms\"],"
      "\"rows\":[[\"a\",\"fast path\",\"5.0\"]]}";
  auto table = ParseBenchJson(json);
  ASSERT_TRUE(table.ok());
  const BenchComparison comparison = CompareBenchTables(*table, *table, 5.0);
  EXPECT_EQ(comparison.deltas.size(), 1u);  // only "ms" is numeric
}

TEST(BenchCompareTest, MalformedJsonIsRejected) {
  EXPECT_FALSE(ParseBenchJson("not json").ok());
  EXPECT_FALSE(ParseBenchJson("{\"bench\":\"x\"}").ok());  // no headers/rows
  EXPECT_FALSE(ParseBenchJson("{\"headers\":[],\"rows\":[}").ok());
}

TEST(BenchCompareTest, DeepNestingIsAStatusNotAStackOverflow) {
  const std::string brackets(1 << 20, '[');
  EXPECT_FALSE(ParseBenchJson(brackets).ok());
  // The same run under a skipped member reaches SkipValue.
  EXPECT_FALSE(ParseBenchJson("{\"extra\":" + brackets).ok());
  std::string closed = "{\"headers\":[\"k\"],\"extra\":" + brackets;
  closed.append(brackets.size(), ']');
  EXPECT_TRUE(ParseBenchJson(closed + "}").ok());
}

TEST(BenchCompareTest, EveryGoldenArtifactParses) {
  int parsed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(SCANRAW_SOURCE_DIR) + "/bench/golden")) {
    if (entry.path().extension() != ".json") continue;
    auto contents = ReadFileToString(entry.path().string());
    ASSERT_TRUE(contents.ok()) << entry.path();
    auto table = ParseBenchJson(*contents);
    ASSERT_TRUE(table.ok()) << entry.path() << ": "
                            << table.status().ToString();
    EXPECT_FALSE(table->rows.empty()) << entry.path();
    ++parsed;
  }
  EXPECT_GT(parsed, 0);
}

TEST(BenchCompareTest, DuplicateRowKeysMatchByOccurrence) {
  auto table =
      ParseBenchJson("{\"headers\":[\"k\",\"ms\"],"
                     "\"rows\":[[\"a\",\"1.0\"],[\"a\",\"2.0\"]]}");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const BenchComparison same = CompareBenchTables(*table, *table, 5.0);
  EXPECT_FALSE(same.has_regression()) << same.ToText();
  ASSERT_EQ(same.deltas.size(), 2u);
  for (const BenchDelta& d : same.deltas) EXPECT_EQ(d.delta_pct, 0.0);
  EXPECT_TRUE(same.unmatched.empty());

  // The second "a" row regresses alone; a third candidate "a" row has no
  // baseline partner.
  auto slower = ParseBenchJson(
      "{\"headers\":[\"k\",\"ms\"],\"rows\":[[\"a\",\"1.0\"],"
      "[\"a\",\"4.0\"],[\"a\",\"9.0\"]]}");
  ASSERT_TRUE(slower.ok());
  const BenchComparison cmp = CompareBenchTables(*table, *slower, 5.0);
  ASSERT_EQ(cmp.deltas.size(), 2u);
  EXPECT_EQ(cmp.deltas[0].baseline, 2.0);
  EXPECT_EQ(cmp.deltas[0].candidate, 4.0);
  EXPECT_TRUE(cmp.deltas[0].regressed);
  EXPECT_FALSE(cmp.deltas[1].regressed);
  EXPECT_EQ(cmp.unmatched,
            std::vector<std::string>{"row \"a\" missing in baseline"});
}

TEST(BenchCompareTest, EveryGoldenArtifactMatchesItself) {
  int compared = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(SCANRAW_SOURCE_DIR) + "/bench/golden")) {
    if (entry.path().extension() != ".json") continue;
    auto contents = ReadFileToString(entry.path().string());
    ASSERT_TRUE(contents.ok()) << entry.path();
    auto table = ParseBenchJson(*contents);
    ASSERT_TRUE(table.ok()) << entry.path();
    const BenchComparison cmp = CompareBenchTables(*table, *table, 5.0);
    EXPECT_FALSE(cmp.has_regression()) << entry.path() << "\n" << cmp.ToText();
    EXPECT_TRUE(cmp.unmatched.empty()) << entry.path();
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

}  // namespace
}  // namespace scanraw
