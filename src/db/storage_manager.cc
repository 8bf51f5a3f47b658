#include "db/storage_manager.h"

#include <algorithm>
#include <set>

#include "columnar/chunk_serde.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "io/fault_injection.h"

namespace scanraw {

Result<std::unique_ptr<StorageManager>> StorageManager::Create(
    const std::string& path, RateLimiter* limiter, IoStats* stats) {
  auto writer = WritableFile::Create(path, limiter, stats);
  if (!writer.ok()) return writer.status();
  return std::unique_ptr<StorageManager>(
      new StorageManager(path, std::move(*writer), limiter, stats));
}

Result<std::unique_ptr<StorageManager>> StorageManager::OpenExisting(
    const std::string& path, RateLimiter* limiter, IoStats* stats) {
  auto writer = WritableFile::OpenForAppend(path, limiter, stats);
  if (!writer.ok()) return writer.status();
  auto manager = std::unique_ptr<StorageManager>(
      new StorageManager(path, std::move(*writer), limiter, stats));
  manager->next_offset_ = manager->writer_->bytes_written();
  return manager;
}

StorageManager::StorageManager(std::string path,
                               std::unique_ptr<WritableFile> writer,
                               RateLimiter* limiter, IoStats* stats)
    : path_(std::move(path)),
      limiter_(limiter),
      stats_(stats),
      writer_(std::move(writer)) {}

Result<StoredSegment> StorageManager::WriteSegment(
    const BinaryChunk& chunk, const std::vector<size_t>& columns) {
  std::vector<size_t> page_columns(columns);
  std::sort(page_columns.begin(), page_columns.end());
  page_columns.erase(std::unique(page_columns.begin(), page_columns.end()),
                     page_columns.end());
  std::string blob;
  const int64_t t0 = RealClock::Instance()->NowNanos();
  SCANRAW_RETURN_IF_ERROR(SerializeChunk(
      chunk, page_columns, &blob, compress_.load(std::memory_order_relaxed)));

  MutexLock lock(write_mu_);
  StoredSegment segment;
  segment.page.offset = next_offset_;
  segment.page.size = blob.size();
  segment.columns = columns;
  FaultKillPoint("storage.write_segment.before_append");
  Status append_status = writer_->Append(blob);
  if (!append_status.ok()) {
    // A failed append may still have written a torn prefix (ENOSPC mid
    // write). Resync so the next segment's recorded offset matches the
    // real end of the file instead of overlapping the torn bytes.
    next_offset_ = writer_->bytes_written();
    return append_status;
  }
  FaultKillPoint("storage.write_segment.after_append");
  next_offset_ += blob.size();
  if (segments_metric_ != nullptr) segments_metric_->Add(1);
  if (bytes_metric_ != nullptr) bytes_metric_->Add(blob.size());
  if (write_nanos_metric_ != nullptr) {
    write_nanos_metric_->Record(
        static_cast<uint64_t>(RealClock::Instance()->NowNanos() - t0));
  }
  return segment;
}

Result<StoredSegment> StorageManager::WriteChunk(const BinaryChunk& chunk) {
  return WriteSegment(chunk, chunk.ColumnIds());
}

Status StorageManager::Sync() {
  MutexLock lock(write_mu_);
  return writer_->Sync();
}

Result<std::string> StorageManager::ReadRange(uint64_t offset,
                                              uint64_t size) const {
  RandomAccessFile* reader = nullptr;
  {
    MutexLock lock(reader_mu_);
    if (reader_ == nullptr) {
      auto opened = RandomAccessFile::Open(path_, limiter_, stats_);
      if (!opened.ok()) return opened.status();
      reader_ = std::move(*opened);
    }
    reader = reader_.get();
  }
  std::string bytes(size, '\0');
  auto n = reader->ReadAt(offset, size, bytes.data());
  if (!n.ok()) return n.status();
  if (*n != size) {
    return Status::Corruption(StringPrintf(
        "short read at %llu: got %zu of %llu bytes",
        static_cast<unsigned long long>(offset), *n,
        static_cast<unsigned long long>(size)));
  }
  return bytes;
}

Result<BinaryChunk> StorageManager::ReadSegment(const PageRef& page) const {
  auto blob = ReadRange(page.offset, page.size);
  if (!blob.ok()) return blob.status();
  return DeserializeChunk(*blob);
}

Status StorageManager::VerifySegment(const PageRef& page) const {
  if (page.offset + page.size > bytes_written()) {
    return Status::Corruption(StringPrintf(
        "segment [%llu, +%llu) extends past storage end %llu",
        static_cast<unsigned long long>(page.offset),
        static_cast<unsigned long long>(page.size),
        static_cast<unsigned long long>(bytes_written())));
  }
  auto blob = ReadRange(page.offset, page.size);
  if (!blob.ok()) return blob.status();
  auto header = ParseSegmentHeader(*blob, blob->size());
  if (!header.ok()) return header.status();
  for (const ColumnExtent& e : header->columns) {
    SCANRAW_RETURN_IF_ERROR(
        VerifyColumn(e, std::string_view(*blob).substr(e.offset, e.length)));
  }
  return Status::OK();
}

Result<BinaryChunk> StorageManager::ReadChunkColumns(
    const ChunkMetadata& chunk_meta, const std::vector<size_t>& columns) const {
  if (!chunk_meta.HasColumnsLoaded(columns)) {
    return Status::NotFound(StringPrintf(
        "chunk %llu does not have all requested columns loaded",
        static_cast<unsigned long long>(chunk_meta.chunk_index)));
  }
  BinaryChunk merged(chunk_meta.chunk_index);
  std::set<size_t> needed(columns.begin(), columns.end());
  for (const StoredSegment& seg : chunk_meta.segments) {
    if (needed.empty()) break;
    const std::set<size_t> seg_columns(seg.columns.begin(), seg.columns.end());
    if (std::none_of(seg_columns.begin(), seg_columns.end(),
                     [&](size_t c) { return needed.count(c) > 0; })) {
      continue;
    }
    // One small read for the header, sized from the catalog's column list.
    auto head = ReadRange(
        seg.page.offset,
        std::min<uint64_t>(seg.page.size,
                           SegmentHeaderBytes(seg_columns.size())));
    if (!head.ok()) return head.status();
    auto header = ParseSegmentHeader(*head, seg.page.size);
    if (!header.ok()) return header.status();
    if (header->chunk_index != chunk_meta.chunk_index) {
      return Status::Corruption(StringPrintf(
          "segment at %llu holds chunk %llu, catalog expects %llu",
          static_cast<unsigned long long>(seg.page.offset),
          static_cast<unsigned long long>(header->chunk_index),
          static_cast<unsigned long long>(chunk_meta.chunk_index)));
    }
    // The projected bodies, in page order, through one coalesced read.
    std::vector<const ColumnExtent*> wanted;
    for (const ColumnExtent& e : header->columns) {
      if (needed.count(e.col) > 0) wanted.push_back(&e);
    }
    if (wanted.empty()) continue;
    const uint64_t begin = wanted.front()->offset;
    const uint64_t end = wanted.back()->offset + wanted.back()->length;
    auto bodies = ReadRange(seg.page.offset + begin, end - begin);
    if (!bodies.ok()) return bodies.status();
    for (const ColumnExtent* e : wanted) {
      auto vec = DecodeColumn(
          *e, header->num_rows,
          std::string_view(*bodies).substr(e->offset - begin, e->length));
      if (!vec.ok()) return vec.status();
      SCANRAW_RETURN_IF_ERROR(merged.AddColumn(e->col, std::move(*vec)));
      needed.erase(e->col);
    }
  }
  if (!needed.empty()) {
    return Status::Corruption(StringPrintf(
        "chunk %llu: stored pages lack column %zu the catalog lists",
        static_cast<unsigned long long>(chunk_meta.chunk_index),
        *needed.begin()));
  }
  return merged;
}

uint64_t StorageManager::bytes_written() const {
  MutexLock lock(write_mu_);
  return next_offset_;
}

void StorageManager::BindMetrics(obs::Counter* segments_written,
                                 obs::Counter* bytes,
                                 obs::Histogram* write_nanos) {
  MutexLock lock(write_mu_);
  segments_metric_ = segments_written;
  bytes_metric_ = bytes;
  write_nanos_metric_ = write_nanos;
}

}  // namespace scanraw
