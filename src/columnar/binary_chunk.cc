#include "columnar/binary_chunk.h"

#include "common/string_util.h"

namespace scanraw {

Status BinaryChunk::AddColumn(size_t col, ColumnVector vector) {
  if (num_rows_ != 0 && vector.size() != num_rows_) {
    return Status::InvalidArgument(StringPrintf(
        "column %zu has %zu rows, chunk has %zu", col, vector.size(),
        num_rows_));
  }
  if (num_rows_ == 0) num_rows_ = vector.size();
  columns_[col] = std::move(vector);
  return Status::OK();
}

size_t BinaryChunk::MemoryBytes() const {
  size_t total = sizeof(*this);
  for (const auto& [_, vec] : columns_) total += vec.MemoryBytes();
  return total;
}

}  // namespace scanraw
