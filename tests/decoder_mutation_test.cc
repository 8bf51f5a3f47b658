// Seeded mutation driver for the decoders of persisted bytes: the
// query-log line reader (QueryLogEvent::FromJsonLine), the bench-artifact
// reader (ParseBenchJson), the chunk page (DeserializeChunk,
// ParseSegmentHeader, StorageManager::ReadChunkColumns), the posmap sidecar
// (DecodePosmapSidecar) and the BAM-like block reader (BamReader). Plain
// gtest with a fixed seed and no fuzzing engine: each case mutates a valid
// input by byte flips, byte overwrites, truncations, insertions, deletions
// and duplicated spans, and the decoder must answer false / a Status or a
// value. It must never crash (the ASan and UBSan suites run this binary),
// never hang (ctest's timeout), and never allocate more than a small
// multiple of the input's size. The binary formats are checksummed, so half
// of their cases re-seal the mutated bytes with valid CRC32Cs first: those
// reach the parsers behind the checksums.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <random>
#include <string>
#include <string_view>

#include "columnar/chunk_serde.h"
#include "common/crc32c.h"
#include "db/storage_manager.h"
#include "format/posmap_serde.h"
#include "genomics/bam_like.h"
#include "io/file.h"
#include "obs/query_log.h"
#include "tools/bench_compare_lib.h"

namespace {

// Bytes requested through operator new since the last reset.
std::atomic<size_t> g_allocated{0};

}  // namespace

void* operator new(size_t n) {
  g_allocated.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a new.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace scanraw {
namespace {

// Total bytes one decode may allocate: a fixed allowance for the decoder's
// own tables plus a constant factor of the input.
constexpr size_t kAllocPerInputByte = 16;
constexpr size_t kAllocFixed = 4 << 10;
constexpr int kCases = 3000;

// Fragments that steer mutations into the decoders' interesting states.
constexpr std::string_view kTokens[] = {
    "{", "}", "[", "]", "\"", ":", ",", "\\", "\\u", "\\u00", "nan", "-inf",
    "1e999", "-", "true", "null", "100000000000000000000", "\"seq\":1,"};

class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  std::string Mutate(std::string s) {
    const int ops = 1 + static_cast<int>(Below(4));
    for (int op = 0; op < ops; ++op) {
      const size_t at = Below(s.size() + 1);
      const size_t len = 1 + Below(16);
      switch (Below(7)) {
        case 0:  // flip one bit
          if (at < s.size()) s[at] ^= static_cast<char>(1u << Below(8));
          break;
        case 1:  // overwrite one byte with any value
          if (at < s.size()) s[at] = static_cast<char>(Below(256));
          break;
        case 2:  // truncate
          s.resize(at);
          break;
        case 3:  // insert a random byte
          s.insert(at, 1, static_cast<char>(Below(256)));
          break;
        case 4:  // insert a structural token
          s.insert(at, kTokens[Below(std::size(kTokens))]);
          break;
        case 5:  // delete a span
          s.erase(std::min(at, s.size()), len);
          break;
        default: {  // duplicate a span somewhere else
          const std::string span = s.substr(std::min(at, s.size()), len);
          s.insert(Below(s.size() + 1), span);
        }
      }
    }
    return s;
  }

 private:
  size_t Below(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }

  std::mt19937_64 rng_;
};

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

template <typename T>
T LoadAt(const std::string& s, size_t at) {
  T v{};
  std::memcpy(&v, s.data() + at, sizeof(v));
  return v;
}

template <typename T>
void StoreAt(std::string* s, size_t at, T v) {
  std::memcpy(s->data() + at, &v, sizeof(v));
}

// Rewrites the CRCs of a mutated chunk page (layout in columnar/chunk_serde.h)
// wherever its header still locates them: every in-bounds column body, then
// the header.
void ResealPage(std::string* page) {
  if (page->size() < 12) return;
  const uint64_t header_len = LoadAt<uint32_t>(*page, 4);
  if (header_len < 20 || header_len > page->size() - 12) return;
  const uint64_t columns = LoadAt<uint32_t>(*page, 12 + 16);
  for (uint64_t i = 0; i < columns && 20 + 30 * (i + 1) <= header_len; ++i) {
    const size_t entry = 12 + 20 + 30 * i;
    const uint64_t offset = LoadAt<uint64_t>(*page, entry + 10);
    const uint64_t length = LoadAt<uint64_t>(*page, entry + 18);
    if (offset > page->size() || length > page->size() - offset) continue;
    StoreAt<uint32_t>(page, entry + 26,
                      Crc32c(std::string_view(*page).substr(offset, length)));
  }
  StoreAt<uint32_t>(page, 8,
                    Crc32c(std::string_view(*page).substr(12, header_len)));
}

// Rewrites a mutated sidecar's whole-file CRC footer.
void ResealSidecar(std::string* sidecar) {
  if (sidecar->size() < 4) return;
  const size_t body = sidecar->size() - 4;
  StoreAt<uint32_t>(sidecar, body,
                    Crc32c(std::string_view(*sidecar).substr(0, body)));
}

// Rewrites the CRC of every in-bounds block of a mutated BAM-like file
// (12-byte file header, then payload u32 | records u32 | crc u32 | payload).
void ResealBam(std::string* bam) {
  size_t pos = 12;
  while (pos + 12 <= bam->size()) {
    const uint64_t payload = LoadAt<uint32_t>(*bam, pos);
    if (payload > bam->size() - pos - 12) return;
    StoreAt<uint32_t>(bam, pos + 8,
                      Crc32c(std::string_view(*bam).substr(pos + 12, payload)));
    pos += 12 + payload;
  }
}

// Runs `decode` on `input` and checks its allocation stays within budget.
template <typename F>
void DecodeWithinBudget(const std::string& input, F&& decode) {
  g_allocated.store(0, std::memory_order_relaxed);
  decode();
  const size_t allocated = g_allocated.load(std::memory_order_relaxed);
  EXPECT_LE(allocated, kAllocFixed + kAllocPerInputByte * input.size())
      << "input of " << input.size() << " bytes";
}

obs::QueryLogEvent SampleEvent() {
  obs::QueryLogEvent e;
  e.seq = 7;
  e.ts_unix_micros = 1723100000000000;
  e.table = "line\"item\\\t\x01";
  e.policy = "speculative-loading";
  e.wall_seconds = 0.125;
  e.columns = {0, 2, 5};
  e.predicate_columns = {2};
  e.rows_scanned = 1000;
  e.stage_busy_seconds = {{"READ", 0.05}, {"PARSE", 0.07}};
  e.chunks_from_raw = 3;
  e.cache_hit_rate = 0.25;
  e.speculation_paid_off = true;
  return e;
}

TEST(DecoderMutationTest, QueryLogLine) {
  const std::string line = SampleEvent().ToJsonLine();
  Mutator mutator(0x5eed'0001);
  int accepted = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string input = mutator.Mutate(line);
    obs::QueryLogEvent event;
    bool ok = false;
    DecodeWithinBudget(
        input, [&] { ok = obs::QueryLogEvent::FromJsonLine(input, &event); });
    if (!ok) continue;
    ++accepted;
    // Whatever parses re-serializes to a line that parses to the same event.
    const std::string again = event.ToJsonLine();
    obs::QueryLogEvent back;
    ASSERT_TRUE(obs::QueryLogEvent::FromJsonLine(again, &back)) << input;
    EXPECT_EQ(back.ToJsonLine(), again) << input;
  }
  // The mutations are small enough that some still decode (a flipped digit,
  // whitespace), so both outcomes are exercised.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCases);
}

TEST(DecoderMutationTest, BenchArtifact) {
  auto golden = ReadFileToString(std::string(SCANRAW_SOURCE_DIR) +
                                 "/bench/golden/BENCH_fig5_pipeline.json");
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  ASSERT_TRUE(ParseBenchJson(*golden).ok());
  Mutator mutator(0x5eed'0002);
  int accepted = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string input = mutator.Mutate(*golden);
    Result<BenchTable> table = Status::Aborted("not decoded");
    DecodeWithinBudget(input, [&] { table = ParseBenchJson(input); });
    if (!table.ok()) continue;
    ++accepted;
    // The diff takes whatever the reader accepts.
    const BenchComparison cmp = CompareBenchTables(*table, *table, 5.0);
    EXPECT_LE(cmp.deltas.size(), table->rows.size() * table->headers.size());
    EXPECT_FALSE(cmp.ToText().empty());
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCases);
}

// Every column type, both encodings: uint32, int64, double, string, and
// two clustered integer columns that delta-encode.
BinaryChunk SampleChunk() {
  BinaryChunk chunk(6);
  ColumnVector u(FieldType::kUint32), i(FieldType::kInt64),
      d(FieldType::kDouble), str(FieldType::kString), du(FieldType::kUint32),
      di(FieldType::kInt64);
  for (uint32_t r = 0; r < 16; ++r) {
    u.AppendUint32(r * 2654435761u);
    i.AppendInt64(-static_cast<int64_t>(r) * 1000003);
    d.AppendDouble(r * 0.5);
    str.AppendString(std::string(r % 4, static_cast<char>('a' + r)));
    du.AppendUint32(100 + r);
    di.AppendInt64(7 * static_cast<int64_t>(r));
  }
  EXPECT_TRUE(chunk.AddColumn(0, std::move(u)).ok());
  EXPECT_TRUE(chunk.AddColumn(1, std::move(i)).ok());
  EXPECT_TRUE(chunk.AddColumn(2, std::move(d)).ok());
  EXPECT_TRUE(chunk.AddColumn(3, std::move(str)).ok());
  EXPECT_TRUE(chunk.AddColumn(4, std::move(du)).ok());
  EXPECT_TRUE(chunk.AddColumn(5, std::move(di)).ok());
  return chunk;
}

TEST(DecoderMutationTest, ChunkSegment) {
  const BinaryChunk chunk = SampleChunk();
  std::string page;
  ASSERT_TRUE(SerializeChunk(chunk, &page, /*compress=*/true).ok());
  ASSERT_TRUE(DeserializeChunk(page).ok());
  const std::string db_path = TempPath("mutation_segment.db");
  ChunkMetadata meta;
  meta.chunk_index = chunk.chunk_index();
  meta.num_rows = chunk.num_rows();
  meta.loaded_columns = {0, 1, 2, 3, 4, 5};
  meta.segments.push_back(
      StoredSegment{PageRef{0, 0}, {0, 1, 2, 3, 4, 5}});
  Mutator mutator(0x5eed'0003);
  std::mt19937_64 rng(0x5eed'0004);
  int accepted = 0;
  for (int i = 0; i < kCases; ++i) {
    std::string input = mutator.Mutate(page);
    if (i % 2 == 1) ResealPage(&input);
    Result<BinaryChunk> back = Status::Aborted("not decoded");
    DecodeWithinBudget(input, [&] { back = DeserializeChunk(input); });
    if (back.ok()) {
      ++accepted;
      // Whatever decodes re-encodes to a page that decodes the same.
      std::string again;
      ASSERT_TRUE(SerializeChunk(*back, &again).ok());
      auto twice = DeserializeChunk(again);
      ASSERT_TRUE(twice.ok()) << twice.status().ToString();
      EXPECT_EQ(twice->ColumnIds(), back->ColumnIds());
      EXPECT_EQ(twice->num_rows(), back->num_rows());
    }
    // The header parser on a prefix of any length.
    const size_t cut = rng() % (input.size() + 1);
    DecodeWithinBudget(input, [&] {
      (void)ParseSegmentHeader(std::string_view(input).substr(0, cut),
                               input.size());
    });
    // The projected read from storage, over a random non-empty projection.
    ASSERT_TRUE(WriteStringToFile(db_path, input).ok());
    auto storage = StorageManager::OpenExisting(db_path);
    ASSERT_TRUE(storage.ok());
    meta.segments[0].page.size = input.size();
    std::vector<size_t> projection;
    const uint64_t mask = 1 + rng() % 63;
    for (size_t c = 0; c < 6; ++c) {
      if ((mask >> c) & 1) projection.push_back(c);
    }
    Result<BinaryChunk> read = Status::Aborted("not read");
    DecodeWithinBudget(input, [&] {
      read = (*storage)->ReadChunkColumns(meta, projection);
    });
    if (read.ok()) EXPECT_EQ(read->ColumnIds(), projection);
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCases);
}

TEST(DecoderMutationTest, PosmapSidecar) {
  std::vector<uint32_t> compact, explicit_ends;
  for (uint32_t v = 0; v < 40; ++v) compact.push_back(v * 3);
  for (uint32_t v = 0; v < 24; ++v) explicit_ends.push_back(v * 5);
  PosmapSidecarHeader header;
  header.table = "t";
  header.raw_size = 4096;
  header.raw_mtime_nanos = 17;
  const std::string sidecar = EncodePosmapSidecar(
      header,
      {{0, std::make_shared<const PositionalMap>(
               PositionalMap::FromOffsets(3, false, std::move(compact)))},
       {1, std::make_shared<const PositionalMap>(PositionalMap::FromOffsets(
               2, true, std::move(explicit_ends)))}});
  Mutator mutator(0x5eed'0005);
  int accepted = 0;
  for (int i = 0; i < kCases; ++i) {
    std::string input = mutator.Mutate(sidecar);
    if (i % 2 == 1) ResealSidecar(&input);
    PosmapSidecarHeader decoded_header;
    Result<std::vector<PosmapSidecarEntry>> entries =
        Status::Aborted("not decoded");
    DecodeWithinBudget(input, [&] {
      entries = DecodePosmapSidecar(input, &decoded_header);
    });
    if (!entries.ok()) continue;
    ++accepted;
    // Whatever decodes re-encodes to a sidecar that decodes and re-encodes
    // to the same bytes (any nonzero explicit-ends byte reads as 1).
    const std::string again = EncodePosmapSidecar(decoded_header, *entries);
    PosmapSidecarHeader again_header;
    auto twice = DecodePosmapSidecar(again, &again_header);
    ASSERT_TRUE(twice.ok()) << twice.status().ToString();
    EXPECT_EQ(EncodePosmapSidecar(again_header, *twice), again);
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCases);
}

TEST(DecoderMutationTest, BamBlock) {
  const std::string golden_path = TempPath("mutation_golden.bam");
  SamGenSpec spec;
  spec.num_reads = 6;
  spec.read_length = 24;
  ASSERT_TRUE(GenerateBamFile(golden_path, spec, /*records_per_block=*/2).ok());
  auto golden = ReadFileToString(golden_path);
  ASSERT_TRUE(golden.ok());
  const std::string path = TempPath("mutation_case.bam");
  Mutator mutator(0x5eed'0006);
  int accepted = 0;
  for (int i = 0; i < kCases; ++i) {
    std::string input = mutator.Mutate(*golden);
    if (i % 2 == 1) ResealBam(&input);
    ASSERT_TRUE(WriteStringToFile(path, input).ok());
    Status status;
    uint64_t records = 0;
    DecodeWithinBudget(input, [&] {
      auto reader = BamReader::Open(path);
      if (!reader.ok()) {
        status = reader.status();
        return;
      }
      SamRecord record;
      while (true) {
        auto more = (*reader)->NextRecord(&record);
        if (!more.ok()) {
          status = more.status();
          return;
        }
        if (!*more) return;
        ++records;
      }
    });
    if (status.ok()) ++accepted;
    // Each record takes at least one byte per field, so a decode that ends
    // has read no more records than the file has bytes.
    EXPECT_LE(records, input.size());
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCases);
}

}  // namespace
}  // namespace scanraw
