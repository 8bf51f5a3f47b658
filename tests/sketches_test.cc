#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "db/sketches.h"

namespace scanraw {
namespace {

TEST(KmvSketchTest, ExactBelowK) {
  KmvSketch sketch(64);
  for (int i = 0; i < 50; ++i) sketch.AddInt(i);
  EXPECT_TRUE(sketch.IsExact());
  EXPECT_DOUBLE_EQ(sketch.EstimateDistinct(), 50.0);
}

TEST(KmvSketchTest, DuplicatesDoNotInflate) {
  KmvSketch sketch(64);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 30; ++i) sketch.AddInt(i);
  }
  EXPECT_DOUBLE_EQ(sketch.EstimateDistinct(), 30.0);
}

TEST(KmvSketchTest, EstimatesLargeCardinality) {
  KmvSketch sketch(256);
  const int n = 100000;
  for (int i = 0; i < n; ++i) sketch.AddInt(i);
  EXPECT_FALSE(sketch.IsExact());
  const double estimate = sketch.EstimateDistinct();
  EXPECT_NEAR(estimate, n, 0.15 * n);  // KMV error ~1/sqrt(k) ~ 6%
}

TEST(KmvSketchTest, StringsAndReScanIdempotent) {
  KmvSketch a(128), b(128);
  std::vector<std::string> values;
  for (int i = 0; i < 500; ++i) values.push_back("val" + std::to_string(i));
  for (const auto& v : values) a.AddString(v);
  // b sees the same values three times over.
  for (int round = 0; round < 3; ++round) {
    for (const auto& v : values) b.AddString(v);
  }
  EXPECT_DOUBLE_EQ(a.EstimateDistinct(), b.EstimateDistinct());
}

TEST(KmvSketchTest, StringHashIsFnv1a) {
  // FNV-1a 64-bit test vectors.
  EXPECT_EQ(KmvSketch::StringHash(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(KmvSketch::StringHash("a"), 0xaf63dc4c8601ec8cull);
}

TEST(KmvSketchTest, MergeEqualsUnion) {
  KmvSketch a(128), b(128), all(128);
  for (int i = 0; i < 1000; ++i) {
    if (i % 2 == 0) {
      a.AddInt(i);
    } else {
      b.AddInt(i);
    }
    all.AddInt(i);
  }
  a.Merge(b);
  EXPECT_NEAR(a.EstimateDistinct(), all.EstimateDistinct(), 1e-9);
}

TEST(ReservoirSampleTest, KeepsEverythingBelowCapacity) {
  ReservoirSample sample(16);
  for (int i = 0; i < 10; ++i) sample.Add(i);
  EXPECT_EQ(sample.samples().size(), 10u);
  EXPECT_EQ(sample.values_seen(), 10u);
}

TEST(ReservoirSampleTest, BoundedAndUniformish) {
  ReservoirSample sample(100, /*seed=*/7);
  const int n = 100000;
  for (int i = 0; i < n; ++i) sample.Add(i);
  EXPECT_EQ(sample.samples().size(), 100u);
  EXPECT_EQ(sample.values_seen(), static_cast<uint64_t>(n));
  // A uniform sample's mean should be near n/2.
  double mean = 0;
  for (int64_t v : sample.samples()) mean += static_cast<double>(v);
  mean /= 100.0;
  EXPECT_NEAR(mean, n / 2.0, n * 0.15);
  // All sampled values are actual inputs.
  for (int64_t v : sample.samples()) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, n);
  }
}

TEST(ReservoirSampleTest, DeterministicForSeed) {
  ReservoirSample a(10, 3), b(10, 3);
  for (int i = 0; i < 1000; ++i) {
    a.Add(i);
    b.Add(i);
  }
  EXPECT_EQ(a.samples(), b.samples());
}

BinaryChunk MakeChunk(uint64_t index, size_t rows, uint32_t modulus) {
  BinaryChunk chunk(index);
  ColumnVector num(FieldType::kUint32), str(FieldType::kString);
  for (size_t r = 0; r < rows; ++r) {
    num.AppendUint32(static_cast<uint32_t>(r % modulus));
    str.AppendString("s" + std::to_string(r % modulus));
  }
  EXPECT_TRUE(chunk.AddColumn(0, std::move(num)).ok());
  EXPECT_TRUE(chunk.AddColumn(1, std::move(str)).ok());
  return chunk;
}

TEST(TableSketchesTest, PerColumnDistinct) {
  TableSketches sketches(256, 32);
  sketches.AddChunk(MakeChunk(0, 1000, 10));
  sketches.AddChunk(MakeChunk(1, 1000, 10));
  EXPECT_EQ(sketches.chunks_added(), 2u);
  EXPECT_DOUBLE_EQ(sketches.EstimateDistinct(0), 10.0);
  EXPECT_DOUBLE_EQ(sketches.EstimateDistinct(1), 10.0);  // strings too
  EXPECT_DOUBLE_EQ(sketches.EstimateDistinct(99), 0.0);  // unseen column
  // Numeric sample exists; string columns only feed the distinct sketch.
  EXPECT_FALSE(sketches.Sample(0).empty());
  EXPECT_TRUE(sketches.Sample(1).empty());
}

}  // namespace
}  // namespace scanraw
