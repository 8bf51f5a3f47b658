#include "scanraw/chunk_buffer_pool.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace scanraw {

namespace {

// Bytes of heap capacity a buffer holds.
template <typename Buffer>
size_t CapacityBytes(const Buffer& buffer) {
  return buffer.capacity() * sizeof(typename Buffer::value_type);
}

// A buffer no better than a fresh one (for std::string: within the SSO
// size) holds no heap allocation worth pooling.
template <typename Buffer>
bool HoldsHeap(const Buffer& buffer) {
  return buffer.capacity() > Buffer().capacity();
}

// The largest pooled buffer a request for `min_bytes` may take: at most
// half of it (plus a page) may go unused. A 32 KiB line-start request
// therefore never takes a 2 MB map array that a map request needs next.
size_t MaxFit(size_t min_bytes) { return 2 * min_bytes + 4096; }

// Head-room reserved on a fresh buffer, so a request a little larger than
// the last one (chunks vary in size) still fits it next time.
size_t WithHeadroom(size_t min_elems) { return min_elems + min_elems / 8; }

// Power-of-two capacity class of a buffer holding `bytes` (> 0).
size_t ClassOf(size_t bytes) { return std::bit_width(bytes) - 1; }

}  // namespace

ChunkBufferPool* ChunkBufferPool::Instance() {
  static ChunkBufferPool* const pool = new ChunkBufferPool();
  return pool;
}

template <typename Buffer>
Buffer ChunkBufferPool::Acquire(size_t min_elems) {
  const size_t min_bytes = min_elems * sizeof(typename Buffer::value_type);
  Buffer buffer;
  {
    MutexLock lock(mu_);
    Kind<Buffer>* kind = &KindOf(buffer);
    auto it = kind->idle.lower_bound(min_bytes);
    if (it != kind->idle.end() && it->first <= MaxFit(min_bytes)) {
      const size_t bytes = it->first;
      SizeClass& cls = kind->classes[ClassOf(bytes)];
      cls.pooled -= bytes;
      cls.checked_out += bytes;
      kind->charges.insert(bytes);
      buffer = std::move(it->second.second);
      kind->idle.erase(it);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return buffer;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (min_elems > 0) buffer.reserve(WithHeadroom(min_elems));
  if (!HoldsHeap(buffer)) return buffer;
  std::vector<Buffer> victims;  // freed after the lock (declared first)
  MutexLock lock(mu_);
  Kind<Buffer>* kind = &KindOf(buffer);
  const size_t bytes = CapacityBytes(buffer);
  const size_t c = ClassOf(bytes);
  SizeClass& cls = kind->classes[c];
  cls.checked_out += bytes;
  cls.high_water = std::max(cls.high_water, cls.checked_out);
  kind->charges.insert(bytes);
  EvictOverBound(kind, c, &victims);
  return buffer;
}

template <typename Buffer>
void ChunkBufferPool::Release(Buffer buffer) {
  if (!HoldsHeap(buffer)) return;
  buffer.clear();
  const size_t bytes = CapacityBytes(buffer);
  MutexLock lock(mu_);
  Kind<Buffer>* kind = &KindOf(buffer);
  // Settle the charge this buffer was handed out with: the largest
  // outstanding one its capacity covers (none for a buffer that did not
  // come from the pool).
  auto it = kind->charges.upper_bound(bytes);
  if (it != kind->charges.begin()) {
    --it;
    kind->classes[ClassOf(*it)].checked_out -= *it;
    kind->charges.erase(it);
  }
  // It was checked out at its full capacity until now, grown or not.
  SizeClass& cls = kind->classes[ClassOf(bytes)];
  cls.high_water = std::max(cls.high_water, cls.checked_out + bytes);
  // Keep it only under the byte bound; otherwise `buffer` is freed on
  // return, after the lock (declared later) is released.
  if (cls.pooled + bytes + cls.checked_out > cls.high_water) return;
  cls.pooled += bytes;
  kind->idle.emplace(bytes,
                     std::make_pair(release_seq_++, std::move(buffer)));
}

template <typename Buffer>
void ChunkBufferPool::EvictOverBound(Kind<Buffer>* kind, size_t c,
                                     std::vector<Buffer>* victims) {
  SizeClass& cls = kind->classes[c];
  while (cls.pooled > 0 && cls.pooled + cls.checked_out > cls.high_water) {
    const auto lo = kind->idle.lower_bound(size_t{1} << c);
    const auto hi = c + 1 < kNumClasses
                        ? kind->idle.lower_bound(size_t{1} << (c + 1))
                        : kind->idle.end();
    const auto oldest =
        std::min_element(lo, hi, [](const auto& a, const auto& b) {
          return a.second.first < b.second.first;
        });
    cls.pooled -= oldest->first;
    victims->push_back(std::move(oldest->second.second));
    kind->idle.erase(oldest);
  }
}

size_t ChunkBufferPool::SumBytes(size_t SizeClass::*field) const {
  MutexLock lock(mu_);
  size_t sum = 0;
  for (const auto* classes :
       {&fixed_.classes, &strings_.classes, &offsets_.classes}) {
    for (const SizeClass& cls : *classes) sum += cls.*field;
  }
  return sum;
}

std::vector<uint8_t> ChunkBufferPool::AcquireFixed(size_t min_bytes) {
  return Acquire<std::vector<uint8_t>>(min_bytes);
}

std::string ChunkBufferPool::AcquireString(size_t min_bytes) {
  return Acquire<std::string>(min_bytes);
}

std::vector<uint32_t> ChunkBufferPool::AcquireOffsets(size_t min_count) {
  return Acquire<std::vector<uint32_t>>(min_count);
}

void ChunkBufferPool::ReleaseFixed(std::vector<uint8_t> buffer) {
  Release(std::move(buffer));
}

void ChunkBufferPool::ReleaseString(std::string buffer) {
  Release(std::move(buffer));
}

void ChunkBufferPool::ReleaseOffsets(std::vector<uint32_t> buffer) {
  Release(std::move(buffer));
}

void ChunkBufferPool::ReleaseText(TextChunk* chunk) {
  ReleaseString(std::move(chunk->data));
  ReleaseOffsets(std::move(chunk->line_starts));
  chunk->data.clear();
  chunk->line_starts.clear();
}

size_t ChunkBufferPool::idle_buffers() const {
  MutexLock lock(mu_);
  return fixed_.idle.size() + strings_.idle.size() + offsets_.idle.size();
}

size_t ChunkBufferPool::pooled_bytes() const {
  return SumBytes(&SizeClass::pooled);
}

size_t ChunkBufferPool::checked_out_bytes() const {
  return SumBytes(&SizeClass::checked_out);
}

size_t ChunkBufferPool::high_water_bytes() const {
  return SumBytes(&SizeClass::high_water);
}

std::shared_ptr<TextChunk> ChunkBufferPool::WrapText(TextChunk chunk,
                                                     ChunkBufferPool* pool) {
  if (pool == nullptr) return std::make_shared<TextChunk>(std::move(chunk));
  return std::shared_ptr<TextChunk>(new TextChunk(std::move(chunk)),
                                    [pool](TextChunk* c) {
                                      pool->ReleaseText(c);
                                      delete c;
                                    });
}

std::shared_ptr<const PositionalMap> ChunkBufferPool::WrapMap(
    PositionalMap map, ChunkBufferPool* pool) {
  if (pool == nullptr) {
    return std::make_shared<const PositionalMap>(std::move(map));
  }
  return std::shared_ptr<const PositionalMap>(
      new PositionalMap(std::move(map)), [pool](const PositionalMap* m) {
        auto* mut = const_cast<PositionalMap*>(m);
        pool->ReleaseOffsets(mut->ReleaseSlots());
        delete mut;
      });
}

BinaryChunkPtr ChunkBufferPool::WrapChunk(BinaryChunk chunk,
                                          ChunkBufferPool* pool) {
  if (pool == nullptr) {
    return std::make_shared<const BinaryChunk>(std::move(chunk));
  }
  return BinaryChunkPtr(new BinaryChunk(std::move(chunk)),
                        [pool](const BinaryChunk* c) {
                          auto* mut = const_cast<BinaryChunk*>(c);
                          mut->ReleaseBuffersTo(pool);
                          delete mut;
                        });
}

}  // namespace scanraw
