// Bulk byte scanning for the conversion hot path. TOKENIZE and the READ
// chunker spend their cycles locating '\n' and delimiter bytes; doing that
// one byte (or one memchr call) at a time leaves most of the machine idle.
// These helpers scan 16/32 bytes per step with SSE2/AVX2 when the build
// enables SCANRAW_SIMD (the default; see the top-level CMakeLists option)
// and fall back to memchr-based loops otherwise, so behavior is identical
// across configurations.
//
// All offsets are byte indexes into `data`; every scan covers the half-open
// range [from, end). "Not found" is kNpos.
#ifndef SCANRAW_COMMON_BYTE_SCAN_H_
#define SCANRAW_COMMON_BYTE_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#if defined(SCANRAW_SIMD) && defined(__SSE2__)
#define SCANRAW_BYTE_SCAN_SIMD 1
#include <immintrin.h>
#else
#define SCANRAW_BYTE_SCAN_SIMD 0
#endif

namespace scanraw {
namespace bytescan {

inline constexpr size_t kNpos = static_cast<size_t>(-1);

namespace detail {

inline size_t FindNScalar(const char* data, size_t from, size_t end,
                          char needle, uint32_t* out, size_t max_hits,
                          uint32_t bias, size_t* next_match) {
  size_t found = 0;
  size_t pos = from;
  while (pos < end) {
    const char* hit = static_cast<const char*>(
        std::memchr(data + pos, needle, end - pos));
    if (hit == nullptr) break;
    const size_t at = static_cast<size_t>(hit - data);
    if (found == max_hits) {
      *next_match = at;
      return found;
    }
    out[found++] = static_cast<uint32_t>(at) + bias;
    pos = at + 1;
  }
  *next_match = kNpos;
  return found;
}

#if SCANRAW_BYTE_SCAN_SIMD

// Drains one 16/32-lane match mask into `out`. Returns false when the hit
// budget ran out (the overflow position lands in *next_match).
inline bool DrainMask(uint32_t mask, size_t base, uint32_t* out,
                      size_t max_hits, uint32_t bias, size_t* found,
                      size_t* next_match) {
  while (mask != 0) {
    const size_t at = base + static_cast<size_t>(__builtin_ctz(mask));
    if (*found == max_hits) {
      *next_match = at;
      return false;
    }
    out[(*found)++] = static_cast<uint32_t>(at) + bias;
    mask &= mask - 1;
  }
  return true;
}

inline size_t FindNSse2(const char* data, size_t from, size_t end,
                        char needle, uint32_t* out, size_t max_hits,
                        uint32_t bias, size_t* next_match) {
  const __m128i vneedle = _mm_set1_epi8(needle);
  size_t found = 0;
  size_t i = from;
  for (; i + 16 <= end; i += 16) {
    const __m128i block =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const uint32_t mask = static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(block, vneedle)));
    if (!DrainMask(mask, i, out, max_hits, bias, &found, next_match)) {
      return found;
    }
  }
  for (; i < end; ++i) {
    if (data[i] == needle) {
      if (found == max_hits) {
        *next_match = i;
        return found;
      }
      out[found++] = static_cast<uint32_t>(i) + bias;
    }
  }
  *next_match = kNpos;
  return found;
}

__attribute__((target("avx2"))) inline size_t FindNAvx2(
    const char* data, size_t from, size_t end, char needle, uint32_t* out,
    size_t max_hits, uint32_t bias, size_t* next_match) {
  const __m256i vneedle = _mm256_set1_epi8(needle);
  size_t found = 0;
  size_t i = from;
  for (; i + 32 <= end; i += 32) {
    const __m256i block =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const uint32_t mask = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(block, vneedle)));
    if (!DrainMask(mask, i, out, max_hits, bias, &found, next_match)) {
      return found;
    }
  }
  for (; i < end; ++i) {
    if (data[i] == needle) {
      if (found == max_hits) {
        *next_match = i;
        return found;
      }
      out[found++] = static_cast<uint32_t>(i) + bias;
    }
  }
  *next_match = kNpos;
  return found;
}

inline size_t FindEitherSse2(const char* data, size_t from, size_t end,
                             char a, char b) {
  const __m128i va = _mm_set1_epi8(a);
  const __m128i vb = _mm_set1_epi8(b);
  size_t i = from;
  for (; i + 16 <= end; i += 16) {
    const __m128i block =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const uint32_t mask = static_cast<uint32_t>(_mm_movemask_epi8(
        _mm_or_si128(_mm_cmpeq_epi8(block, va), _mm_cmpeq_epi8(block, vb))));
    if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
  }
  for (; i < end; ++i) {
    if (data[i] == a || data[i] == b) return i;
  }
  return kNpos;
}

inline size_t FindAnyOf4Sse2(const char* data, size_t from, size_t end,
                             char a, char b, char c, char d) {
  const __m128i va = _mm_set1_epi8(a);
  const __m128i vb = _mm_set1_epi8(b);
  const __m128i vc = _mm_set1_epi8(c);
  const __m128i vd = _mm_set1_epi8(d);
  size_t i = from;
  for (; i + 16 <= end; i += 16) {
    const __m128i block =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const __m128i eq =
        _mm_or_si128(_mm_or_si128(_mm_cmpeq_epi8(block, va),
                                  _mm_cmpeq_epi8(block, vb)),
                     _mm_or_si128(_mm_cmpeq_epi8(block, vc),
                                  _mm_cmpeq_epi8(block, vd)));
    const uint32_t mask = static_cast<uint32_t>(_mm_movemask_epi8(eq));
    if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
  }
  for (; i < end; ++i) {
    if (data[i] == a || data[i] == b || data[i] == c || data[i] == d) {
      return i;
    }
  }
  return kNpos;
}

inline bool HaveAvx2() {
  static const bool have = __builtin_cpu_supports("avx2") != 0;
  return have;
}

#endif  // SCANRAW_BYTE_SCAN_SIMD

}  // namespace detail

// First occurrence of `needle` in [from, end), or kNpos. memchr is already
// vectorized by the C library; this wrapper only normalizes the interface.
inline size_t FindByte(const char* data, size_t from, size_t end,
                       char needle) {
  if (from >= end) return kNpos;
  const char* hit =
      static_cast<const char*>(std::memchr(data + from, needle, end - from));
  return hit == nullptr ? kNpos : static_cast<size_t>(hit - data);
}

// First occurrence of `a` or `b` in [from, end), or kNpos. memchr cannot
// search two needles in one pass; the SIMD body can.
inline size_t FindEither(const char* data, size_t from, size_t end, char a,
                         char b) {
  if (from >= end) return kNpos;
#if SCANRAW_BYTE_SCAN_SIMD
  return detail::FindEitherSse2(data, from, end, a, b);
#else
  for (size_t i = from; i < end; ++i) {
    if (data[i] == a || data[i] == b) return i;
  }
  return kNpos;
#endif
}

// First occurrence of any of the four needles in [from, end), or kNpos.
inline size_t FindAnyOf4(const char* data, size_t from, size_t end, char a,
                         char b, char c, char d) {
  if (from >= end) return kNpos;
#if SCANRAW_BYTE_SCAN_SIMD
  return detail::FindAnyOf4Sse2(data, from, end, a, b, c, d);
#else
  for (size_t i = from; i < end; ++i) {
    if (data[i] == a || data[i] == b || data[i] == c || data[i] == d) {
      return i;
    }
  }
  return kNpos;
#endif
}

// Bulk multi-match scan: writes `pos + bias` for the first `max_hits`
// occurrences of `needle` into `out` (which must hold max_hits slots) and
// reports the position of the (max_hits+1)-th occurrence in *next_match
// (kNpos when the range holds at most max_hits matches). Returns the number
// of slots written. The tokenizer passes a positional-map row as `out` with
// bias 1, turning each delimiter hit directly into the next field's start.
inline size_t FindN(const char* data, size_t from, size_t end, char needle,
                    uint32_t* out, size_t max_hits, uint32_t bias,
                    size_t* next_match) {
  if (from >= end) {
    *next_match = kNpos;
    return 0;
  }
#if SCANRAW_BYTE_SCAN_SIMD
  if (detail::HaveAvx2()) {
    return detail::FindNAvx2(data, from, end, needle, out, max_hits, bias,
                             next_match);
  }
  return detail::FindNSse2(data, from, end, needle, out, max_hits, bias,
                           next_match);
#else
  return detail::FindNScalar(data, from, end, needle, out, max_hits, bias,
                             next_match);
#endif
}

// Appends `pos + bias` for up to `max_hits` occurrences of `needle` to
// `out`. Returns the number appended. Batches through FindN so the append
// target never over-reserves for an unknown match count.
inline size_t FindAll(const char* data, size_t from, size_t end, char needle,
                      size_t max_hits, uint32_t bias,
                      std::vector<uint32_t>* out) {
  constexpr size_t kBatch = 1024;
  size_t total = 0;
  size_t pos = from;
  while (total < max_hits && pos < end) {
    const size_t base = out->size();
    size_t batch = max_hits - total < kBatch ? max_hits - total : kBatch;
    // Fill spare capacity before growing: a vector sized for its hits (a
    // recycled line-start buffer) must not regrow for a batch's slack.
    const size_t spare = out->capacity() - base;
    if (spare > 0 && spare < batch) batch = spare;
    out->resize(base + batch);
    size_t next = kNpos;
    const size_t n =
        FindN(data, pos, end, needle, out->data() + base, batch, bias, &next);
    out->resize(base + n);
    total += n;
    if (n < batch || next == kNpos) break;
    pos = next;  // the overflow match restarts the next batch
  }
  return total;
}

}  // namespace bytescan
}  // namespace scanraw

#endif  // SCANRAW_COMMON_BYTE_SCAN_H_
