// ColumnVector: a typed array of values — the in-memory unit of the binary
// representation (§3.1: "tuples are vertically partitioned along columns
// represented as arrays in memory").
#ifndef SCANRAW_COLUMNAR_COLUMN_VECTOR_H_
#define SCANRAW_COLUMNAR_COLUMN_VECTOR_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "format/field_type.h"

namespace scanraw {

// Supplier of recycled backing buffers for ColumnVector (and the READ
// chunker's text buffers and the tokenizer's map slots). Acquired buffers
// are always empty (size 0) with capacity for at least the requested number
// of elements, so steady-state pipeline iterations neither allocate nor
// regrow. Implemented by scanraw::ChunkBufferPool; defined here so the
// parser and tokenizer can recycle without depending on the scanraw/ layer.
class ColumnBufferSource {
 public:
  virtual ~ColumnBufferSource() = default;
  virtual std::vector<uint8_t> AcquireFixed(size_t min_bytes) = 0;
  virtual std::string AcquireString(size_t min_bytes) = 0;
  virtual std::vector<uint32_t> AcquireOffsets(size_t min_count) = 0;
  virtual void ReleaseFixed(std::vector<uint8_t> buffer) = 0;
  virtual void ReleaseString(std::string buffer) = 0;
  virtual void ReleaseOffsets(std::vector<uint32_t> buffer) = 0;
};

// double -> int64, truncating toward zero like static_cast, but defined for
// every input: NaN maps to 0 and values outside int64's range (including
// ±inf) clamp to INT64_MIN / INT64_MAX, where a plain cast is undefined.
inline int64_t SaturatingToInt64(double v) {
  constexpr double kTwo63 = 9223372036854775808.0;
  if (std::isnan(v)) return 0;
  if (v >= kTwo63) return std::numeric_limits<int64_t>::max();
  if (v <= -kTwo63) return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(v);
}

class ColumnVector {
 public:
  ColumnVector() = default;
  explicit ColumnVector(FieldType type) : type_(type) {}

  FieldType type() const { return type_; }
  size_t size() const { return num_values_; }
  bool empty() const { return num_values_ == 0; }

  void Reserve(size_t n) {
    if (IsFixedWidth(type_)) {
      fixed_.reserve(n * FixedWidth(type_));
    } else {
      string_offsets_.reserve(n + 1);
    }
  }

  // -- appends (type must match; unchecked in release builds) --
  void AppendUint32(uint32_t v) { AppendFixed(&v, sizeof(v)); }
  void AppendInt64(int64_t v) { AppendFixed(&v, sizeof(v)); }
  void AppendDouble(double v) { AppendFixed(&v, sizeof(v)); }

  // Bulk appends: grow by `n` values in one resize and return a pointer to
  // the new block for the caller to fill (the columnar parser writes one
  // whole column through these instead of one AppendFixed per field). The
  // block is zero-initialized by the resize.
  uint32_t* AppendUint32Block(size_t n) {
    return static_cast<uint32_t*>(AppendBlock(n, sizeof(uint32_t)));
  }
  int64_t* AppendInt64Block(size_t n) {
    return static_cast<int64_t*>(AppendBlock(n, sizeof(int64_t)));
  }
  double* AppendDoubleBlock(size_t n) {
    return static_cast<double*>(AppendBlock(n, sizeof(double)));
  }

  // -- buffer recycling (see ChunkBufferPool) --
  // Swaps in recycled, empty backing buffers for this vector's type, sized
  // for `n` values (and, for strings, `arena_bytes` of payload).
  void AdoptBuffersFrom(ColumnBufferSource* source, size_t n,
                        size_t arena_bytes = 0) {
    if (IsFixedWidth(type_)) {
      fixed_ = source->AcquireFixed(n * FixedWidth(type_));
    } else {
      string_arena_ = source->AcquireString(arena_bytes);
      string_offsets_ = source->AcquireOffsets(n + 1);
    }
    num_values_ = 0;
  }
  // Hands every backing buffer (and its capacity) back; the vector is empty
  // afterwards. Safe on buffers that never came from a source.
  void ReleaseBuffersTo(ColumnBufferSource* source) {
    source->ReleaseFixed(std::move(fixed_));
    source->ReleaseString(std::move(string_arena_));
    source->ReleaseOffsets(std::move(string_offsets_));
    fixed_.clear();
    string_arena_.clear();
    string_offsets_.clear();
    num_values_ = 0;
  }
  void AppendString(std::string_view v) {
    if (string_offsets_.empty()) string_offsets_.push_back(0);
    string_arena_.append(v);
    string_offsets_.push_back(static_cast<uint32_t>(string_arena_.size()));
    ++num_values_;
  }

  // -- typed access --
  std::span<const uint32_t> AsUint32() const {
    return {reinterpret_cast<const uint32_t*>(fixed_.data()), num_values_};
  }
  std::span<const int64_t> AsInt64() const {
    return {reinterpret_cast<const int64_t*>(fixed_.data()), num_values_};
  }
  std::span<const double> AsDouble() const {
    return {reinterpret_cast<const double*>(fixed_.data()), num_values_};
  }
  std::string_view StringAt(size_t i) const {
    return std::string_view(string_arena_)
        .substr(string_offsets_[i], string_offsets_[i + 1] - string_offsets_[i]);
  }

  // Scalar access by row, returned as int64 (uint32 widened, double
  // truncated by SaturatingToInt64); only valid for numeric columns.
  int64_t NumericAt(size_t i) const {
    switch (type_) {
      case FieldType::kUint32:
        return AsUint32()[i];
      case FieldType::kInt64:
        return AsInt64()[i];
      case FieldType::kDouble:
        return SaturatingToInt64(AsDouble()[i]);
      case FieldType::kString:
        break;
    }
    return 0;
  }

  // Bytes of payload (used for cache accounting and page sizing).
  size_t MemoryBytes() const {
    return fixed_.size() + string_arena_.size() +
           string_offsets_.size() * sizeof(uint32_t);
  }

  // -- raw (de)serialization support, see chunk_serde.cc --
  const std::vector<uint8_t>& fixed_data() const { return fixed_; }
  const std::string& string_arena() const { return string_arena_; }
  const std::vector<uint32_t>& string_offsets() const {
    return string_offsets_;
  }
  void SetFixedData(std::vector<uint8_t> data, size_t num_values) {
    fixed_ = std::move(data);
    num_values_ = num_values;
  }
  void SetStringData(std::string arena, std::vector<uint32_t> offsets) {
    string_arena_ = std::move(arena);
    string_offsets_ = std::move(offsets);
    num_values_ = string_offsets_.empty() ? 0 : string_offsets_.size() - 1;
  }

 private:
  void AppendFixed(const void* src, size_t width) {
    const size_t old = fixed_.size();
    fixed_.resize(old + width);
    std::memcpy(fixed_.data() + old, src, width);
    ++num_values_;
  }

  void* AppendBlock(size_t n, size_t width) {
    const size_t old = fixed_.size();
    fixed_.resize(old + n * width);
    num_values_ += n;
    return fixed_.data() + old;
  }

  FieldType type_ = FieldType::kUint32;
  size_t num_values_ = 0;
  std::vector<uint8_t> fixed_;        // fixed-width payload
  std::string string_arena_;          // concatenated string payload
  std::vector<uint32_t> string_offsets_;  // size()+1 boundaries into arena
};

}  // namespace scanraw

#endif  // SCANRAW_COLUMNAR_COLUMN_VECTOR_H_
