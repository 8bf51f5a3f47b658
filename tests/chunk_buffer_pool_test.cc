// Tests for ChunkBufferPool: buffer recycling across READ/TOKENIZE/PARSE,
// size-aware best fit, the byte bound on retention, the hit/miss counters,
// and the Wrap* shared-ptr hooks that return buffers when the last chunk or
// map reference drops.

#include "scanraw/chunk_buffer_pool.h"

#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/binary_chunk.h"
#include "format/positional_map.h"
#include "format/text_chunk.h"

namespace scanraw {
namespace {

// A text chunk whose buffers were checked out of `pool`, as the READ stage
// builds them.
TextChunk PooledChunk(ChunkBufferPool* pool, std::string_view text) {
  std::string data = pool->AcquireText(text.size());
  data.assign(text);
  std::vector<uint32_t> starts = pool->AcquireLineStarts(4);
  FindLineStarts(data, &starts);
  return MakeTextChunk(std::move(data), std::move(starts));
}

void ExpectWithinBound(const ChunkBufferPool& pool) {
  EXPECT_LE(pool.pooled_bytes() + pool.checked_out_bytes(),
            pool.high_water_bytes());
}

TEST(ChunkBufferPoolTest, EmptyPoolHandsOutFreshBuffers) {
  ChunkBufferPool pool;
  EXPECT_TRUE(pool.AcquireFixed(0).empty());
  EXPECT_TRUE(pool.AcquireString(0).empty());
  EXPECT_TRUE(pool.AcquireOffsets(0).empty());
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 3u);
  EXPECT_EQ(pool.idle_buffers(), 0u);
  // A sized miss comes back with at least the requested capacity.
  EXPECT_GE(pool.AcquireOffsets(1000).capacity(), 1000u);
}

TEST(ChunkBufferPoolTest, RecyclesCapacityAcrossAcquireRelease) {
  ChunkBufferPool pool;
  std::string s(1 << 16, 'x');
  const size_t cap = s.capacity();
  pool.ReleaseString(std::move(s));
  EXPECT_EQ(pool.idle_buffers(), 1u);

  std::string back = pool.AcquireString(1 << 16);
  EXPECT_TRUE(back.empty());          // recycled buffers come back empty...
  EXPECT_GE(back.capacity(), cap);    // ...with their capacity intact.
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_EQ(pool.idle_buffers(), 0u);
}

TEST(ChunkBufferPoolTest, DropsZeroCapacityReleases) {
  ChunkBufferPool pool;
  pool.ReleaseFixed({});
  pool.ReleaseString({});
  pool.ReleaseOffsets({});
  EXPECT_EQ(pool.idle_buffers(), 0u);
}

TEST(ChunkBufferPoolTest, ByteBoundNeverExceedsHighWater) {
  ChunkBufferPool pool;
  std::mt19937_64 rng(0x9001);
  auto below = [&rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  constexpr size_t kSizes[] = {100, 1000, 8192, 70000, 500000};
  std::vector<std::vector<uint8_t>> fixed;
  std::vector<std::string> strings;
  std::vector<std::vector<uint32_t>> offsets;
  auto held_bytes = [&] {
    size_t bytes = 0;
    for (const auto& b : fixed) bytes += b.capacity();
    for (const auto& b : strings) bytes += b.capacity();
    for (const auto& b : offsets) bytes += b.capacity() * sizeof(uint32_t);
    return bytes;
  };
  // Phase 0: buffers are used within their capacity, so the pool's
  // checked-out bytes are exactly the capacity the test holds. Phase 1:
  // some buffers grow while checked out; only the bound is checked.
  for (int phase = 0; phase < 2; ++phase) {
    for (int op = 0; op < 4000; ++op) {
      const size_t size = kSizes[below(std::size(kSizes))];
      const bool grow = phase == 1 && below(4) == 0;
      switch (below(6)) {
        case 0: {
          auto b = pool.AcquireFixed(size);
          b.resize(grow ? b.capacity() + size : size);
          fixed.push_back(std::move(b));
          break;
        }
        case 1: {
          auto b = pool.AcquireString(size);
          b.resize(grow ? b.capacity() + size : size, 'x');
          strings.push_back(std::move(b));
          break;
        }
        case 2: {
          auto b = pool.AcquireOffsets(size);
          b.resize(grow ? b.capacity() + size : size);
          offsets.push_back(std::move(b));
          break;
        }
        case 3:
          if (!fixed.empty()) {
            const size_t i = below(fixed.size());
            pool.ReleaseFixed(std::move(fixed[i]));
            fixed.erase(fixed.begin() + static_cast<ptrdiff_t>(i));
          }
          break;
        case 4:
          if (!strings.empty()) {
            const size_t i = below(strings.size());
            pool.ReleaseString(std::move(strings[i]));
            strings.erase(strings.begin() + static_cast<ptrdiff_t>(i));
          }
          break;
        default:
          if (!offsets.empty()) {
            const size_t i = below(offsets.size());
            pool.ReleaseOffsets(std::move(offsets[i]));
            offsets.erase(offsets.begin() + static_cast<ptrdiff_t>(i));
          }
      }
      ExpectWithinBound(pool);
      if (phase == 0) {
        ASSERT_EQ(pool.checked_out_bytes(), held_bytes()) << "op " << op;
      }
    }
    for (auto& b : fixed) pool.ReleaseFixed(std::move(b));
    for (auto& b : strings) pool.ReleaseString(std::move(b));
    for (auto& b : offsets) pool.ReleaseOffsets(std::move(b));
    fixed.clear();
    strings.clear();
    offsets.clear();
    ExpectWithinBound(pool);
  }
  EXPECT_EQ(pool.checked_out_bytes(), 0u);
  EXPECT_GT(pool.hits(), 0u);
  EXPECT_GT(pool.idle_buffers(), 0u);
}

TEST(ChunkBufferPoolTest, MissOverTheBoundEvictsLongestIdle) {
  ChunkBufferPool pool;
  // A small buffer from another size class is not affected.
  pool.ReleaseString(std::string(1 << 12, 'x'));
  pool.ReleaseString(std::string(600000, 'x'));
  ASSERT_EQ(pool.idle_buffers(), 2u);
  // The pipeline now needs a buffer of the same size class that the idle
  // one cannot serve; holding both would exceed what was ever checked out
  // of that class at one time.
  std::string big = pool.AcquireString(900000);
  EXPECT_EQ(pool.idle_buffers(), 1u);
  ExpectWithinBound(pool);
  pool.ReleaseString(std::move(big));
  EXPECT_EQ(pool.idle_buffers(), 2u);
  EXPECT_GE(pool.AcquireString(900000).capacity(), 900000u);
  EXPECT_GE(pool.AcquireString(1 << 12).capacity(), size_t{1} << 12);
  EXPECT_EQ(pool.hits(), 2u);
}

TEST(ChunkBufferPoolTest, BestFitKeepsSizesApart) {
  ChunkBufferPool pool;
  constexpr size_t kLineStarts = 8192;      // 32 KiB
  constexpr size_t kMapSlots = 8192 * 65;  // ~2.1 MB
  auto small = pool.AcquireOffsets(kLineStarts);
  auto big = pool.AcquireOffsets(kMapSlots);
  const size_t small_cap = small.capacity();
  const size_t big_cap = big.capacity();
  // Released small first, big last: a LIFO list would hand the map array
  // to the next line-start request.
  pool.ReleaseOffsets(std::move(small));
  pool.ReleaseOffsets(std::move(big));
  auto small_again = pool.AcquireOffsets(kLineStarts);
  auto big_again = pool.AcquireOffsets(kMapSlots);
  EXPECT_EQ(small_again.capacity(), small_cap);
  EXPECT_EQ(big_again.capacity(), big_cap);
  EXPECT_EQ(pool.hits(), 2u);
  // With the small one checked out, another line-start request gets a
  // fresh buffer rather than the idle map array.
  pool.ReleaseOffsets(std::move(big_again));
  auto another = pool.AcquireOffsets(kLineStarts);
  EXPECT_LT(another.capacity(), big_cap);
  EXPECT_EQ(pool.misses(), 3u);
}

TEST(ChunkBufferPoolTest, FreeListsAreIndependentPerKind) {
  ChunkBufferPool pool;
  std::vector<uint8_t> fixed;
  fixed.reserve(16);
  pool.ReleaseFixed(std::move(fixed));
  // The fixed free list must not satisfy a string/offsets acquire.
  EXPECT_EQ(pool.AcquireString(0).capacity(), std::string().capacity());
  EXPECT_TRUE(pool.AcquireOffsets(0).empty());
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.idle_buffers(), 1u);
  EXPECT_GE(pool.AcquireFixed(16).capacity(), 16u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.idle_buffers(), 0u);
}

TEST(ChunkBufferPoolTest, ReleaseTextTakesDataAndLineStarts) {
  ChunkBufferPool pool;
  TextChunk chunk =
      PooledChunk(&pool, "field_one,field_two\nfield_three,field_four\n");
  ASSERT_EQ(chunk.num_rows(), 2u);
  pool.ReleaseText(&chunk);
  EXPECT_TRUE(chunk.data.empty());
  EXPECT_TRUE(chunk.line_starts.empty());
  EXPECT_EQ(pool.idle_buffers(), 2u);  // one string + one offsets vector

  EXPECT_FALSE(pool.AcquireText(16).capacity() == 0);
  EXPECT_FALSE(pool.AcquireLineStarts(2).capacity() == 0);
  EXPECT_EQ(pool.hits(), 2u);
}

TEST(ChunkBufferPoolTest, WrapTextReturnsBuffersWhenLastReferenceDrops) {
  ChunkBufferPool pool;
  auto shared = ChunkBufferPool::WrapText(
      PooledChunk(&pool, "wide_enough_to_leave_the_sso_buffer,y\n"), &pool);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->num_rows(), 1u);

  auto second = shared;  // TOKENIZE and PARSE both hold the chunk
  shared.reset();
  EXPECT_EQ(pool.idle_buffers(), 0u);  // still referenced
  second.reset();
  EXPECT_EQ(pool.idle_buffers(), 2u);  // text + line starts came home
}

TEST(ChunkBufferPoolTest, WrapMapReturnsSlotsWhenLastReferenceDrops) {
  ChunkBufferPool pool;
  PositionalMap map(/*num_rows=*/100, /*fields_per_row=*/4,
                    /*explicit_ends=*/false, pool.AcquireOffsets(500));
  ASSERT_EQ(map.num_rows(), 100u);
  auto shared = ChunkBufferPool::WrapMap(std::move(map), &pool);
  auto cached = shared;  // the PARSE task and the posmap cache
  shared.reset();
  EXPECT_EQ(pool.idle_buffers(), 0u);
  cached.reset();
  EXPECT_EQ(pool.idle_buffers(), 1u);
  EXPECT_GE(pool.AcquireOffsets(500).capacity(), 500u);
  EXPECT_EQ(pool.hits(), 1u);
}

TEST(ChunkBufferPoolTest, WrapChunkReturnsColumnBuffers) {
  ChunkBufferPool pool;
  BinaryChunk chunk(9);
  ColumnVector u32(FieldType::kUint32);
  u32.AdoptBuffersFrom(&pool, 2);
  u32.AppendUint32(1);
  u32.AppendUint32(2);
  ColumnVector str(FieldType::kString);
  str.AdoptBuffersFrom(&pool, 2, /*arena_bytes=*/64);
  str.AppendString("hello from a string long enough to live on the heap");
  str.AppendString("world");
  ASSERT_TRUE(chunk.AddColumn(0, std::move(u32)).ok());
  ASSERT_TRUE(chunk.AddColumn(1, std::move(str)).ok());

  BinaryChunkPtr ptr = ChunkBufferPool::WrapChunk(std::move(chunk), &pool);
  ASSERT_NE(ptr, nullptr);
  EXPECT_EQ(ptr->num_rows(), 2u);
  ptr.reset();
  // uint32 column: fixed payload. string column: arena + offsets.
  EXPECT_EQ(pool.idle_buffers(), 3u);
}

TEST(ChunkBufferPoolTest, NullPoolWrapsDegradeToPlainSharedPtr) {
  auto text = ChunkBufferPool::WrapText(MakeTextChunk("a\n"), nullptr);
  ASSERT_NE(text, nullptr);
  EXPECT_EQ(text->num_rows(), 1u);

  BinaryChunk chunk(0);
  ColumnVector v(FieldType::kUint32);
  v.AppendUint32(7);
  ASSERT_TRUE(chunk.AddColumn(0, std::move(v)).ok());
  BinaryChunkPtr ptr = ChunkBufferPool::WrapChunk(std::move(chunk), nullptr);
  ASSERT_NE(ptr, nullptr);
  EXPECT_EQ(ptr->column(0).AsUint32()[0], 7u);

  auto map = ChunkBufferPool::WrapMap(PositionalMap(3, 2), nullptr);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->num_rows(), 3u);
}

TEST(ChunkBufferPoolTest, MetricsAreOptional) {
  // The pool counts hits and misses itself; nothing needs binding before
  // it recycles.
  ChunkBufferPool pool;
  std::string s(128, 'a');
  pool.ReleaseString(std::move(s));
  EXPECT_GE(pool.AcquireString(128).capacity(), 128u);
}

TEST(ChunkBufferPoolTest, SteadyStateReusesInsteadOfAllocating) {
  ChunkBufferPool pool;
  // Prime the pool with one round-trip, then loop acquire→release: every
  // later acquire must be a hit.
  std::string buf(4096, 'b');
  pool.ReleaseString(std::move(buf));
  for (int i = 0; i < 10; ++i) {
    std::string b = pool.AcquireString(4096);
    b.assign(4096, 'c');
    pool.ReleaseString(std::move(b));
  }
  EXPECT_EQ(pool.hits(), 10u);
  EXPECT_EQ(pool.misses(), 0u);
}

TEST(ChunkBufferPoolTest, InstanceIsOneProcessWidePool) {
  EXPECT_NE(ChunkBufferPool::Instance(), nullptr);
  EXPECT_EQ(ChunkBufferPool::Instance(), ChunkBufferPool::Instance());
}

}  // namespace
}  // namespace scanraw
