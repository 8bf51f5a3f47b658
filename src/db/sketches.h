// Advanced statistics sketches (§3.3: "More advanced statistics such as
// the number of distinct elements and the skew of an attribute — or even
// samples — can be also extracted during the conversion stage").
//
// KmvSketch is a K-minimum-values distinct-count estimator; ReservoirSample
// keeps a uniform fixed-size sample. TableSketches aggregates both per
// column and is safe to update concurrently from parse workers.
#ifndef SCANRAW_DB_SKETCHES_H_
#define SCANRAW_DB_SKETCHES_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/binary_chunk.h"
#include "common/thread_annotations.h"

namespace scanraw {

// K-minimum-values estimator: keeps the k smallest 64-bit hashes seen;
// with the k-th smallest at hash h, distinct ~= (k-1) * 2^64 / h.
// Duplicates hash identically, so re-scanning data does not bias it.
class KmvSketch {
 public:
  explicit KmvSketch(size_t k = 256) : k_(k) {}

  void AddHash(uint64_t hash);
  void AddInt(int64_t value);
  void AddString(std::string_view value);

  // The hash AddString applies: 64-bit FNV-1a, a hash function for distinct
  // counting, not a checksum (persisted bytes use Crc32c).
  static uint64_t StringHash(std::string_view value);

  // Estimated number of distinct values added so far.
  double EstimateDistinct() const;

  // Exact when fewer than k distinct values were seen.
  bool IsExact() const { return mins_.size() < k_; }

  void Merge(const KmvSketch& other);

  size_t k() const { return k_; }

 private:
  size_t k_;
  std::set<uint64_t> mins_;  // at most k_ smallest hashes
};

// Algorithm-R reservoir sampling over int64 values; deterministic for a
// given seed and insertion order.
class ReservoirSample {
 public:
  explicit ReservoirSample(size_t capacity = 64, uint64_t seed = 1);

  void Add(int64_t value);

  const std::vector<int64_t>& samples() const { return samples_; }
  uint64_t values_seen() const { return seen_; }

 private:
  size_t capacity_;
  uint64_t state_;
  uint64_t seen_ = 0;
  std::vector<int64_t> samples_;
};

struct ColumnSketch {
  KmvSketch distinct;
  ReservoirSample sample;
};

// Per-column sketches for one table. AddChunk folds every column of a
// converted chunk in; string columns feed the distinct sketch only.
class TableSketches {
 public:
  explicit TableSketches(size_t kmv_k = 256, size_t sample_capacity = 64)
      : kmv_k_(kmv_k), sample_capacity_(sample_capacity) {}

  void AddChunk(const BinaryChunk& chunk) EXCLUDES(mu_);

  // Estimated distinct count for a column; 0 if never seen.
  double EstimateDistinct(size_t column) const EXCLUDES(mu_);

  // Snapshot of the current sample (numeric columns only).
  std::vector<int64_t> Sample(size_t column) const EXCLUDES(mu_);

  uint64_t chunks_added() const EXCLUDES(mu_);

 private:
  const size_t kmv_k_;
  const size_t sample_capacity_;
  mutable Mutex mu_{LockRank::kSketches, "TableSketches.mu"};
  std::map<size_t, ColumnSketch> columns_ GUARDED_BY(mu_);
  uint64_t chunks_added_ GUARDED_BY(mu_) = 0;
};

}  // namespace scanraw

#endif  // SCANRAW_DB_SKETCHES_H_
