// ChunkBufferPool: recycles the large allocations of the READ→TOKENIZE→
// PARSE pipeline — TextChunk text buffers and line-start vectors,
// positional-map slot arrays, and ColumnVector backing arrays — so chunk
// processing reuses capacity (and the pages behind it) instead of
// round-tripping every chunk's buffers through the allocator and faulting
// them in afresh. Buffers are returned when the last reference to a chunk
// or map drops (see WrapText / WrapMap / WrapChunk) and handed out again by
// the READ chunker, the tokenizer (TokenizeOptions::recycler) and the parser
// (ParseOptions::recycler).
//
// There is one pool per process, ChunkBufferPool::Instance(), shared by
// every operator of every manager: a query on a new manager reuses the
// capacity the last one released. Retention is bounded by bytes, per buffer
// kind and power-of-two capacity class: the pool holds a buffer only while
// the class's pooled plus checked-out bytes stay at or below the class's
// high-water mark of checked-out bytes, so it never keeps more memory of a
// size than the pipeline once needed of that size at one time.
#ifndef SCANRAW_SCANRAW_CHUNK_BUFFER_POOL_H_
#define SCANRAW_SCANRAW_CHUNK_BUFFER_POOL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "columnar/binary_chunk.h"
#include "common/thread_annotations.h"
#include "format/positional_map.h"
#include "format/text_chunk.h"

namespace scanraw {

// Thread-safe. Free lists are keyed by buffer kind (raw text and string
// arenas share the std::string list; line starts, map slots and string
// offsets share the uint32 list) and ordered by capacity: an acquire takes
// the smallest pooled buffer that holds `min` elements without wasting more
// than about half of it, so buffers of different sizes keep their roles
// instead of swapping and regrowing.
class ChunkBufferPool : public ColumnBufferSource {
 public:
  // The process-wide pool (leaked, so no exit-order hazard). Code under
  // src/ uses only this instance; tests may construct private pools.
  static ChunkBufferPool* Instance();

  ChunkBufferPool() = default;
  ChunkBufferPool(const ChunkBufferPool&) = delete;
  ChunkBufferPool& operator=(const ChunkBufferPool&) = delete;

  // -- ColumnBufferSource --
  // Acquired buffers are empty with capacity for at least `min` elements.
  std::vector<uint8_t> AcquireFixed(size_t min_bytes) override EXCLUDES(mu_);
  std::string AcquireString(size_t min_bytes) override EXCLUDES(mu_);
  std::vector<uint32_t> AcquireOffsets(size_t min_count) override
      EXCLUDES(mu_);
  void ReleaseFixed(std::vector<uint8_t> buffer) override EXCLUDES(mu_);
  void ReleaseString(std::string buffer) override EXCLUDES(mu_);
  void ReleaseOffsets(std::vector<uint32_t> buffer) override EXCLUDES(mu_);

  // Text buffers ride the same free lists: a chunk's raw bytes are a
  // std::string and its line starts a uint32 vector.
  std::string AcquireText(size_t min_bytes) EXCLUDES(mu_) {
    return AcquireString(min_bytes);
  }
  std::vector<uint32_t> AcquireLineStarts(size_t min_count) EXCLUDES(mu_) {
    return AcquireOffsets(min_count);
  }
  // Takes the chunk's buffers back; the chunk is empty afterwards.
  void ReleaseText(TextChunk* chunk) EXCLUDES(mu_);

  // Acquires served from a free list (hits) or by a fresh buffer (misses),
  // over the pool's lifetime. Per-query numbers are deltas of these, so
  // they include every operator's traffic while the query ran.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  size_t idle_buffers() const EXCLUDES(mu_);
  // Capacity bytes idle in the free lists, checked out (at the capacity
  // each buffer had when it was handed out), and the high-water marks of
  // checked-out bytes, each summed over the size classes. pooled +
  // checked_out never exceeds the high-water mark.
  size_t pooled_bytes() const EXCLUDES(mu_);
  size_t checked_out_bytes() const EXCLUDES(mu_);
  size_t high_water_bytes() const EXCLUDES(mu_);

  // Wraps a TextChunk so its buffers return to `pool` when the last
  // reference drops — the chunk is shared by TOKENIZE and PARSE, and only
  // the final release may recycle it. A null pool degrades to plain
  // make_shared.
  static std::shared_ptr<TextChunk> WrapText(TextChunk chunk,
                                             ChunkBufferPool* pool);

  // Same for a positional map: shared by the PARSE task and the posmap
  // cache, its slot array comes home when both let go.
  static std::shared_ptr<const PositionalMap> WrapMap(PositionalMap map,
                                                      ChunkBufferPool* pool);

  // Same for a parsed BinaryChunk handed to the engine/cache: the consumer
  // holds an ordinary BinaryChunkPtr and the columns' backing arrays come
  // home when it lets go.
  static BinaryChunkPtr WrapChunk(BinaryChunk chunk, ChunkBufferPool* pool);

 private:
  // Byte accounting of one power-of-two capacity class of one kind.
  struct SizeClass {
    size_t pooled = 0;
    size_t checked_out = 0;
    size_t high_water = 0;
  };
  static constexpr size_t kNumClasses = 64;

  // One buffer kind: idle buffers by capacity in bytes, each tagged with
  // the order it was released in (eviction takes the longest-idle first);
  // the capacity of every checked-out buffer (a release settles the largest
  // charge its capacity covers; the difference grew while the buffer was
  // out); and the per-class byte accounting.
  template <typename Buffer>
  struct Kind {
    std::multimap<size_t, std::pair<uint64_t, Buffer>> idle;
    std::multiset<size_t> charges;
    std::array<SizeClass, kNumClasses> classes{};
  };

  template <typename Buffer>
  Buffer Acquire(size_t min_elems) EXCLUDES(mu_);
  template <typename Buffer>
  void Release(Buffer buffer) EXCLUDES(mu_);
  // With mu_ held: moves longest-idle buffers of `kind`'s class `c` to
  // `*victims` until the class is back under its high-water mark; the
  // caller frees them after unlocking.
  template <typename Buffer>
  static void EvictOverBound(Kind<Buffer>* kind, size_t c,
                             std::vector<Buffer>* victims);
  // The kind a buffer type belongs to.
  Kind<std::vector<uint8_t>>& KindOf(const std::vector<uint8_t>&)
      REQUIRES(mu_) {
    return fixed_;
  }
  Kind<std::string>& KindOf(const std::string&) REQUIRES(mu_) {
    return strings_;
  }
  Kind<std::vector<uint32_t>>& KindOf(const std::vector<uint32_t>&)
      REQUIRES(mu_) {
    return offsets_;
  }
  // Sum of one SizeClass field over every class of every kind.
  size_t SumBytes(size_t SizeClass::*field) const EXCLUDES(mu_);

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};

  mutable Mutex mu_{LockRank::kChunkBufferPool, "ChunkBufferPool.mu"};
  Kind<std::vector<uint8_t>> fixed_ GUARDED_BY(mu_);
  Kind<std::string> strings_ GUARDED_BY(mu_);
  Kind<std::vector<uint32_t>> offsets_ GUARDED_BY(mu_);
  uint64_t release_seq_ GUARDED_BY(mu_) = 0;
};

}  // namespace scanraw

#endif  // SCANRAW_SCANRAW_CHUNK_BUFFER_POOL_H_
