#include "scanraw/raw_reader.h"

#include <algorithm>

#include "common/byte_scan.h"
#include "common/string_util.h"
#include "scanraw/chunk_buffer_pool.h"

namespace scanraw {

namespace {
constexpr size_t kReadBlockBytes = 1 << 20;  // 1 MB sequential read unit
}  // namespace

Result<std::unique_ptr<SequentialChunker>> SequentialChunker::Open(
    const std::string& path, uint64_t chunk_rows, RateLimiter* limiter,
    IoStats* stats, ChunkBufferPool* pool, RecordDialect dialect,
    ThreadPool* scan_pool) {
  if (chunk_rows == 0) {
    return Status::InvalidArgument("chunk_rows must be > 0");
  }
  auto file = RandomAccessFile::Open(path, limiter, stats);
  if (!file.ok()) return file.status();
  return std::unique_ptr<SequentialChunker>(new SequentialChunker(
      std::move(*file), chunk_rows, pool, dialect, scan_pool));
}

SequentialChunker::SequentialChunker(std::unique_ptr<RandomAccessFile> file,
                                     uint64_t chunk_rows,
                                     ChunkBufferPool* pool,
                                     RecordDialect dialect,
                                     ThreadPool* scan_pool)
    : file_(std::move(file)),
      chunk_rows_(chunk_rows),
      pool_(pool),
      dialect_(dialect),
      scan_pool_(scan_pool) {
  // The carry holds up to one read block (the first one is read ahead).
  if (pool_ != nullptr) carry_ = pool_->AcquireText(kReadBlockBytes);
}

SequentialChunker::~SequentialChunker() {
  if (pool_ != nullptr) pool_->ReleaseString(std::move(carry_));
}

uint64_t SequentialChunker::TextBytesHint() {
  if (text_hint_ != 0 || !carry_.empty() || eof_) return text_hint_;
  // First chunk: read the first block ahead and extrapolate its
  // bytes-per-line to a whole chunk, capped at the file.
  carry_.resize(kReadBlockBytes);
  auto n = file_->ReadAt(file_pos_, kReadBlockBytes, carry_.data());
  carry_.resize(n.ok() ? *n : 0);
  if (!n.ok()) return 0;  // Next() meets the error on its own read
  file_pos_ += *n;
  if (*n == 0) eof_ = true;
  newline_scratch_.clear();
  const uint64_t lines = bytescan::FindAll(carry_.data(), 0, carry_.size(),
                                           '\n', chunk_rows_, 0,
                                           &newline_scratch_);
  if (lines == 0) return 0;
  if (lines >= chunk_rows_) return carry_.size();  // no further read
  // A line takes at least one byte, so no chunk has more rows than that;
  // the read loop holds up to one block past the chunk's end (at EOF, the
  // block that comes back empty).
  const uint64_t rows = std::min<uint64_t>(chunk_rows_, file_->size());
  return std::min<uint64_t>(carry_.size() / lines * rows, file_->size()) +
         kReadBlockBytes;
}

Result<std::optional<TextChunk>> SequentialChunker::Next() {
  if (eof_ && carry_.empty()) return std::optional<TextChunk>();
  std::string data;
  if (pool_ != nullptr) {
    // Recycled buffer sized for the whole chunk up front (a buffer that
    // regrew mid-chunk would fault in fresh pages); the carry (usually a
    // partial line) is copied in.
    data = pool_->AcquireText(TextBytesHint());
    data.assign(carry_);
  } else {
    data = std::move(carry_);
  }
  carry_.clear();
  newline_scratch_.clear();

  uint64_t lines = 0;
  if (!dialect_.quoted) {
    // Unquoted fast path (frozen from before the quoted dialect existed):
    // one bulk scan per byte range, budgeted to chunk_rows hits. Newline
    // positions land in the scratch vector, which both sizes the chunk and
    // becomes its line starts below.
    lines = bytescan::FindAll(data.data(), 0, data.size(), '\n', chunk_rows_,
                              0, &newline_scratch_);
    while (lines < chunk_rows_ && !eof_) {
      const size_t old = data.size();
      data.resize(old + kReadBlockBytes);
      auto n = file_->ReadAt(file_pos_, kReadBlockBytes, data.data() + old);
      if (!n.ok()) return n.status();
      data.resize(old + *n);
      file_pos_ += *n;
      if (*n == 0) {
        eof_ = true;
        break;
      }
      lines += bytescan::FindAll(data.data(), old, data.size(), '\n',
                                 chunk_rows_ - lines, 0, &newline_scratch_);
    }
  } else {
    // Quote-aware record discovery. The carry always begins at a record
    // boundary (it is the tail after the previous chunk's cut), so every
    // Next() starts at outside-quote parity; `inside` threads the parity
    // across the incremental block reads. With a scan pool this is the
    // speculative parallel range scan; otherwise the sequential FSM.
    RecordScanOptions sopts;
    sopts.dialect = dialect_;
    sopts.pool = scan_pool_;
    bool inside =
        ParallelFindRecordNewlines(data.data(), 0, data.size(),
                                   /*start_inside=*/false, sopts,
                                   &spec_stats_, &newline_scratch_);
    lines = newline_scratch_.size();
    while (lines < chunk_rows_ && !eof_) {
      const size_t old = data.size();
      data.resize(old + kReadBlockBytes);
      auto n = file_->ReadAt(file_pos_, kReadBlockBytes, data.data() + old);
      if (!n.ok()) return n.status();
      data.resize(old + *n);
      file_pos_ += *n;
      if (*n == 0) {
        eof_ = true;
        break;
      }
      inside = ParallelFindRecordNewlines(data.data(), old, data.size(),
                                          inside, sopts, &spec_stats_,
                                          &newline_scratch_);
      lines = newline_scratch_.size();
    }
  }

  size_t cut = data.size();
  if (lines >= chunk_rows_) {
    cut = static_cast<size_t>(newline_scratch_[chunk_rows_ - 1]) + 1;
  } else if (eof_ && !data.empty() && data.back() != '\n') {
    ++lines;  // final unterminated line
  }
  carry_.assign(data, cut, std::string::npos);
  data.resize(cut);
  // Any later chunk's buffer needs its bytes plus at most one read block
  // of the next chunk's head.
  text_hint_ = std::max<uint64_t>(text_hint_, cut + kReadBlockBytes);
  if (data.empty()) {
    if (pool_ != nullptr) pool_->ReleaseString(std::move(data));
    return std::optional<TextChunk>();
  }

  // Line starts from the newline positions already in hand: 0, then one past
  // every newline except a final-byte terminator.
  std::vector<uint32_t> starts;
  if (pool_ != nullptr) starts = pool_->AcquireLineStarts(lines + 1);
  starts.clear();
  starts.push_back(0);
  for (const uint32_t nl : newline_scratch_) {
    const size_t next_line = static_cast<size_t>(nl) + 1;
    if (next_line >= cut) break;
    starts.push_back(static_cast<uint32_t>(next_line));
  }

  const uint64_t offset = file_pos_ - carry_.size() - data.size();
  TextChunk chunk = MakeTextChunk(std::move(data), std::move(starts),
                                  next_chunk_index_, offset);
  ++next_chunk_index_;
  return std::optional<TextChunk>(std::move(chunk));
}

Result<TextChunk> ReadChunkAt(const RandomAccessFile& file,
                              const ChunkMetadata& meta,
                              ChunkBufferPool* pool, RecordDialect dialect,
                              ThreadPool* scan_pool,
                              SpeculationStats* spec_stats) {
  std::string data;
  if (pool != nullptr) data = pool->AcquireText(meta.raw_size);
  data.resize(meta.raw_size);
  auto n = file.ReadAt(meta.raw_offset, meta.raw_size, data.data());
  if (!n.ok()) return n.status();
  if (*n != meta.raw_size) {
    return Status::Corruption(StringPrintf(
        "short read of chunk %llu: got %zu of %llu bytes",
        static_cast<unsigned long long>(meta.chunk_index), *n,
        static_cast<unsigned long long>(meta.raw_size)));
  }
  std::vector<uint32_t> starts;
  if (pool != nullptr) {
    // The catalog's row count sizes the vector; a line takes at least one
    // byte, which bounds it whatever the catalog says.
    starts = pool->AcquireLineStarts(
        std::min<uint64_t>(meta.num_rows, meta.raw_size) + 1);
  }
  if (!dialect.quoted) {
    FindLineStarts(data, &starts);
  } else {
    // Chunk extents were cut at record boundaries during discovery, so the
    // buffer starts at outside-quote parity; record starts follow every
    // record-terminating newline (except a final-byte terminator).
    RecordScanOptions sopts;
    sopts.dialect = dialect;
    sopts.pool = scan_pool;
    std::vector<uint32_t> record_newlines;
    ParallelFindRecordNewlines(data.data(), 0, data.size(),
                               /*start_inside=*/false, sopts, spec_stats,
                               &record_newlines);
    starts.clear();
    if (!data.empty()) {
      starts.push_back(0);
      for (const uint32_t nl : record_newlines) {
        const size_t next_record = static_cast<size_t>(nl) + 1;
        if (next_record >= data.size()) break;
        starts.push_back(static_cast<uint32_t>(next_record));
      }
    }
  }
  TextChunk chunk = MakeTextChunk(std::move(data), std::move(starts),
                                  meta.chunk_index, meta.raw_offset);
  if (chunk.num_rows() != meta.num_rows) {
    return Status::Corruption(StringPrintf(
        "chunk %llu: expected %llu rows, found %zu",
        static_cast<unsigned long long>(meta.chunk_index),
        static_cast<unsigned long long>(meta.num_rows), chunk.num_rows()));
  }
  return chunk;
}

}  // namespace scanraw
