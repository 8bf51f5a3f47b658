#include "db/statistics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace scanraw {

namespace {

// Conservative int64 envelope for double bounds: round outward (floor for
// min, ceil for max) and saturate, so integer-only consumers of the stats
// can never skip a chunk that contains matching rows. A plain
// static_cast<int64_t> truncates toward zero — min -3.5 became -3, wrongly
// excluding -3.5 from the zone map.
int64_t FloorToInt64(double v) {
  return std::isnan(v) ? std::numeric_limits<int64_t>::min()
                       : SaturatingToInt64(std::floor(v));
}

int64_t CeilToInt64(double v) {
  return std::isnan(v) ? std::numeric_limits<int64_t>::max()
                       : SaturatingToInt64(std::ceil(v));
}

}  // namespace

std::map<size_t, ColumnStats> ComputeChunkStats(const BinaryChunk& chunk) {
  std::map<size_t, ColumnStats> stats;
  if (chunk.num_rows() == 0) return stats;
  for (size_t col : chunk.ColumnIds()) {
    const ColumnVector& vec = chunk.column(col);
    ColumnStats st;
    switch (vec.type()) {
      case FieldType::kUint32: {
        auto values = vec.AsUint32();
        const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
        st.min_value = *lo;
        st.max_value = *hi;
        break;
      }
      case FieldType::kInt64: {
        auto values = vec.AsInt64();
        const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
        st.min_value = *lo;
        st.max_value = *hi;
        break;
      }
      case FieldType::kDouble: {
        auto values = vec.AsDouble();
        const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
        st.has_double = true;
        st.min_double = *lo;
        st.max_double = *hi;
        st.min_value = FloorToInt64(*lo);
        st.max_value = CeilToInt64(*hi);
        break;
      }
      case FieldType::kString:
        continue;
    }
    stats[col] = st;
  }
  return stats;
}

uint64_t EstimateRangeCardinality(const ChunkMetadata& chunk, size_t column,
                                  int64_t lo, int64_t hi) {
  auto it = chunk.stats.find(column);
  if (it == chunk.stats.end()) return chunk.num_rows;
  const ColumnStats& st = it->second;
  if (hi < st.min_value || lo > st.max_value) return 0;
  const double width =
      static_cast<double>(st.max_value - st.min_value) + 1.0;
  const double overlap =
      static_cast<double>(std::min(hi, st.max_value) -
                          std::max(lo, st.min_value)) +
      1.0;
  return static_cast<uint64_t>(static_cast<double>(chunk.num_rows) *
                               (overlap / width));
}

}  // namespace scanraw
