#include <gtest/gtest.h>

#include <cstring>
#include <string_view>

#include "common/crc32c.h"

#include "genomics/bam_like.h"
#include "genomics/sam.h"
#include "io/file.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(SamSchemaTest, ElevenMandatoryFields) {
  Schema schema = SamSchema();
  EXPECT_EQ(schema.num_columns(), 11u);
  EXPECT_EQ(schema.delimiter(), '\t');
  EXPECT_EQ(schema.column(kSamCigar).name, "CIGAR");
  EXPECT_EQ(schema.column(kSamCigar).type, FieldType::kString);
  EXPECT_EQ(schema.column(kSamFlag).type, FieldType::kUint32);
  EXPECT_EQ(schema.column(kSamTlen).type, FieldType::kInt64);
}

TEST(SamGeneratorTest, DeterministicAndWellFormed) {
  SamGenSpec spec;
  spec.num_reads = 50;
  spec.seed = 3;
  auto a = GenerateSamRecords(spec);
  auto b = GenerateSamRecords(spec);
  ASSERT_EQ(a.size(), 50u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(FormatSamLine(a[i]), FormatSamLine(b[i]));
    EXPECT_EQ(a[i].seq.size(), spec.read_length);
    EXPECT_EQ(a[i].qual.size(), spec.read_length);
    EXPECT_FALSE(a[i].cigar.empty());
    // Tab-delimited line has exactly 10 tabs (11 fields).
    const std::string line = FormatSamLine(a[i]);
    EXPECT_EQ(std::count(line.begin(), line.end(), '\t'), 10);
  }
}

TEST(SamGeneratorTest, PatternProbabilityRoughlyHolds) {
  SamGenSpec spec;
  spec.num_reads = 2000;
  spec.pattern_probability = 0.25;
  spec.seed = 11;
  auto records = GenerateSamRecords(spec);
  uint64_t matches = 0;
  for (const auto& r : records) {
    if (r.seq.find(spec.pattern) != std::string::npos) ++matches;
  }
  // Random sequences can also contain the pattern, so >= is the floor; the
  // 10-base pattern arises by chance with probability ~1e-4.
  EXPECT_NEAR(static_cast<double>(matches) / 2000.0, 0.25, 0.05);
}

TEST(SamFileTest, GroundTruthMatchesScanRawQuery) {
  const std::string path = TempPath("reads.sam");
  SamGenSpec spec;
  spec.num_reads = 3000;
  spec.seed = 17;
  auto info = GenerateSamFile(path, spec);
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info->matching_reads, 0u);

  ScanRawManager::Config config;
  config.db_path = TempPath("reads.db");
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions options;
  options.policy = LoadPolicy::kSpeculativeLoading;
  options.num_workers = 2;
  options.chunk_rows = 512;
  ASSERT_TRUE(
      (*manager)->RegisterRawFile("reads", path, SamSchema(), options).ok());

  auto result =
      (*manager)->Query("reads", CigarDistributionQuery(spec.pattern));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_scanned, spec.num_reads);
  EXPECT_EQ(result->rows_matched, info->matching_reads);
  ASSERT_EQ(result->groups.size(), info->cigar_distribution.size());
  for (const auto& [cigar, count] : info->cigar_distribution) {
    EXPECT_EQ(result->groups.at(cigar).count, count) << cigar;
  }
}

TEST(BamFileTest, RoundTripsRecordsExactly) {
  const std::string sam_path = TempPath("rt.sam");
  const std::string bam_path = TempPath("rt.bam");
  SamGenSpec spec;
  spec.num_reads = 1000;
  spec.seed = 23;
  ASSERT_TRUE(GenerateSamFile(sam_path, spec).ok());
  auto bam_info = GenerateBamFile(bam_path, spec, /*records_per_block=*/128);
  ASSERT_TRUE(bam_info.ok());
  EXPECT_EQ(bam_info->num_reads, 1000u);

  // The BAM-like binary must be smaller than the text (2-bit seq + RLE).
  auto sam_size = GetFileSize(sam_path);
  ASSERT_TRUE(sam_size.ok());
  EXPECT_LT(bam_info->file_bytes, *sam_size);

  auto reader = BamReader::Open(bam_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->num_reads(), 1000u);

  // Decoded records must match the generator's stream byte for byte.
  std::vector<SamRecord> expected;
  ASSERT_TRUE(ForEachGeneratedRecord(spec, [&](const SamRecord& r) {
                expected.push_back(r);
                return Status::OK();
              }).ok());
  SamRecord record;
  size_t i = 0;
  while (true) {
    auto more = (*reader)->NextRecord(&record);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ASSERT_LT(i, expected.size());
    EXPECT_EQ(FormatSamLine(record), FormatSamLine(expected[i])) << "read " << i;
    ++i;
  }
  EXPECT_EQ(i, expected.size());
}

TEST(BamFileTest, CorruptionDetected) {
  const std::string bam_path = TempPath("corrupt.bam");
  SamGenSpec spec;
  spec.num_reads = 100;
  ASSERT_TRUE(GenerateBamFile(bam_path, spec, 32).ok());
  auto contents = ReadFileToString(bam_path);
  ASSERT_TRUE(contents.ok());
  std::string corrupted = *contents;
  corrupted[corrupted.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteStringToFile(bam_path, corrupted).ok());
  auto reader = BamReader::Open(bam_path);
  ASSERT_TRUE(reader.ok());
  SamRecord record;
  Status last;
  while (true) {
    auto more = (*reader)->NextRecord(&record);
    if (!more.ok()) {
      last = more.status();
      break;
    }
    if (!*more) break;
  }
  EXPECT_TRUE(last.IsCorruption());
}

TEST(BamFileTest, BadMagicRejected) {
  const std::string path = TempPath("notbam.bam");
  ASSERT_TRUE(WriteStringToFile(path, "definitely not a bam file").ok());
  EXPECT_TRUE(BamReader::Open(path).status().IsCorruption());
}

TEST(BamChunkStreamTest, QueryOverBamMatchesSam) {
  const std::string sam_path = TempPath("q.sam");
  const std::string bam_path = TempPath("q.bam");
  SamGenSpec spec;
  spec.num_reads = 2000;
  spec.seed = 31;
  auto sam_info = GenerateSamFile(sam_path, spec);
  ASSERT_TRUE(sam_info.ok());
  ASSERT_TRUE(GenerateBamFile(bam_path, spec).ok());

  auto reader = BamReader::Open(bam_path);
  ASSERT_TRUE(reader.ok());
  BamChunkStream stream(std::move(*reader), /*chunk_rows=*/256);
  auto result = RunQuery(CigarDistributionQuery(spec.pattern), &stream);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_scanned, spec.num_reads);
  EXPECT_EQ(result->rows_matched, sam_info->matching_reads);
  for (const auto& [cigar, count] : sam_info->cigar_distribution) {
    EXPECT_EQ(result->groups.at(cigar).count, count) << cigar;
  }
}

TEST(BamIndexTest, SeekMatchesSequentialRead) {
  const std::string bam_path = TempPath("indexed.bam");
  SamGenSpec spec;
  spec.num_reads = 1000;
  spec.seed = 41;
  ASSERT_TRUE(GenerateBamFile(bam_path, spec, /*records_per_block=*/128).ok());
  auto index = WriteBamIndex(bam_path);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->num_reads, 1000u);
  EXPECT_EQ(index->blocks.size(), 8u);  // ceil(1000/128)

  // Sequential ground truth.
  std::vector<std::string> expected;
  {
    auto reader = BamReader::Open(bam_path);
    ASSERT_TRUE(reader.ok());
    SamRecord record;
    while (true) {
      auto more = (*reader)->NextRecord(&record);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      expected.push_back(FormatSamLine(record));
    }
  }
  ASSERT_EQ(expected.size(), 1000u);

  // Seeks to assorted positions, including block boundaries.
  auto reader = BamReader::Open(bam_path);
  ASSERT_TRUE(reader.ok());
  SamRecord record;
  for (uint64_t target : {0u, 1u, 127u, 128u, 129u, 500u, 767u, 999u}) {
    ASSERT_TRUE((*reader)->SeekToRecord(*index, target).ok()) << target;
    auto more = (*reader)->NextRecord(&record);
    ASSERT_TRUE(more.ok() && *more) << target;
    EXPECT_EQ(FormatSamLine(record), expected[target]) << target;
    // And the stream continues correctly from there.
    if (target + 1 < 1000) {
      more = (*reader)->NextRecord(&record);
      ASSERT_TRUE(more.ok() && *more);
      EXPECT_EQ(FormatSamLine(record), expected[target + 1]) << target;
    }
  }
  // Out-of-range seek is rejected.
  EXPECT_EQ((*reader)->SeekToRecord(*index, 1000).code(),
            StatusCode::kOutOfRange);
}

TEST(BamIndexTest, PersistedIndexRoundTrips) {
  const std::string bam_path = TempPath("bai_rt.bam");
  SamGenSpec spec;
  spec.num_reads = 300;
  ASSERT_TRUE(GenerateBamFile(bam_path, spec, 64).ok());
  auto written = WriteBamIndex(bam_path);
  ASSERT_TRUE(written.ok());
  auto loaded = LoadBamIndex(bam_path + ".bai");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->blocks.size(), written->blocks.size());
  for (size_t i = 0; i < loaded->blocks.size(); ++i) {
    EXPECT_EQ(loaded->blocks[i].file_offset, written->blocks[i].file_offset);
    EXPECT_EQ(loaded->blocks[i].first_record,
              written->blocks[i].first_record);
    EXPECT_EQ(loaded->blocks[i].record_count,
              written->blocks[i].record_count);
    EXPECT_EQ(loaded->blocks[i].chain_state, written->blocks[i].chain_state);
  }
  // A seek through the loaded index works end to end.
  auto reader = BamReader::Open(bam_path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE((*reader)->SeekToRecord(*loaded, 200).ok());
  SamRecord record;
  auto more = (*reader)->NextRecord(&record);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(record.qname, "read.200");
}

TEST(BamIndexTest, CorruptIndexRejected) {
  const std::string path = TempPath("garbage.bai");
  ASSERT_TRUE(WriteStringToFile(path, "not an index").ok());
  EXPECT_TRUE(LoadBamIndex(path).status().IsCorruption());
}

// The 48-byte index whose entry count, 2^62 + 1, wrapped the old
// `20 + count * 28` size check to 48: the decoder then resized its block
// table to 2^62 + 1 entries and the process died on std::length_error.
std::string WrappingCountIndex(uint32_t magic) {
  std::string blob(48, '\0');
  const uint64_t num_reads = 1;
  const uint64_t count = (uint64_t{1} << 62) + 1;
  std::memcpy(blob.data(), &magic, 4);
  std::memcpy(blob.data() + 4, &num_reads, 8);
  std::memcpy(blob.data() + 12, &count, 8);
  return blob;
}

TEST(BamIndexTest, WrappingEntryCountIsCorruption) {
  const std::string path = TempPath("wrapping_count.bai");
  // As a v1 index ("SBAI", no checksum).
  ASSERT_TRUE(WriteStringToFile(path, WrappingCountIndex(0x49414253)).ok());
  EXPECT_TRUE(LoadBamIndex(path).status().IsCorruption());
  // As a v2 index with a valid checksum, so the count bound itself decides.
  std::string sealed = WrappingCountIndex(0x32414253);
  const uint32_t crc = Crc32c(std::string_view(sealed).substr(0, 44));
  std::memcpy(sealed.data() + 44, &crc, 4);
  ASSERT_TRUE(WriteStringToFile(path, sealed).ok());
  EXPECT_TRUE(LoadBamIndex(path).status().IsCorruption());
}

TEST(BamIndexTest, FlippedBitAndOldVersionAreCorruption) {
  const std::string bam_path = TempPath("bai_flip.bam");
  SamGenSpec spec;
  spec.num_reads = 50;
  ASSERT_TRUE(GenerateBamFile(bam_path, spec, 16).ok());
  ASSERT_TRUE(WriteBamIndex(bam_path).ok());
  auto bytes = ReadFileToString(bam_path + ".bai");
  ASSERT_TRUE(bytes.ok());
  const std::string path = TempPath("bai_flip.bai");
  // A flipped bit in a stored chain state is caught by the footer.
  std::string flipped = *bytes;
  flipped[20 + 20] ^= 0x10;
  ASSERT_TRUE(WriteStringToFile(path, flipped).ok());
  EXPECT_TRUE(LoadBamIndex(path).status().IsCorruption());
  // The v1 layout: old magic, no footer.
  std::string v1 = bytes->substr(0, bytes->size() - 4);
  const uint32_t v1_magic = 0x49414253;
  std::memcpy(v1.data(), &v1_magic, 4);
  ASSERT_TRUE(WriteStringToFile(path, v1).ok());
  EXPECT_TRUE(LoadBamIndex(path).status().IsCorruption());
}

TEST(MapRecordsTest, AllElevenColumnsMapped) {
  SamGenSpec spec;
  spec.num_reads = 5;
  auto records = GenerateSamRecords(spec);
  BinaryChunk chunk = MapRecordsToChunk(records, 9);
  EXPECT_EQ(chunk.chunk_index(), 9u);
  EXPECT_EQ(chunk.num_rows(), 5u);
  EXPECT_EQ(chunk.num_columns(), 11u);
  EXPECT_EQ(chunk.column(kSamQname).StringAt(0), records[0].qname);
  EXPECT_EQ(chunk.column(kSamFlag).AsUint32()[2], records[2].flag);
  EXPECT_EQ(chunk.column(kSamTlen).AsInt64()[4], records[4].tlen);
  EXPECT_EQ(chunk.column(kSamSeq).StringAt(1), records[1].seq);
}

}  // namespace
}  // namespace scanraw
