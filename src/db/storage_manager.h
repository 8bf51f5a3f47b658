// StorageManager: the database's binary storage. WRITE appends serialized
// column pages here; heap scan and ScanRaw read loaded chunks back without
// tokenizing or parsing. Appends are serialized internally; reads use pread
// and may run concurrently with appends.
#ifndef SCANRAW_DB_STORAGE_MANAGER_H_
#define SCANRAW_DB_STORAGE_MANAGER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "columnar/binary_chunk.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "db/catalog.h"
#include "io/file.h"
#include "obs/metrics.h"

namespace scanraw {

class RateLimiter;

class StorageManager {
 public:
  // Creates (or truncates) the database file at `path`. The optional rate
  // limiter emulates a fixed-bandwidth device shared with the raw file.
  static Result<std::unique_ptr<StorageManager>> Create(
      const std::string& path, RateLimiter* limiter = nullptr,
      IoStats* stats = nullptr);

  // Reopens an existing database file for appending; previously written
  // segments stay readable at their recorded PageRefs (restart recovery —
  // pair with Catalog::LoadFromFile).
  static Result<std::unique_ptr<StorageManager>> OpenExisting(
      const std::string& path, RateLimiter* limiter = nullptr,
      IoStats* stats = nullptr);

  // Appends the given columns of `chunk` as one segment; returns its
  // location for the catalog. Thread-safe.
  Result<StoredSegment> WriteSegment(const BinaryChunk& chunk,
                                     const std::vector<size_t>& columns);

  // Appends every column present in the chunk.
  Result<StoredSegment> WriteChunk(const BinaryChunk& chunk);

  // Delta-compress integer columns of future segments (reading handles
  // both encodings transparently). Pairs well with sorted writes.
  void SetCompression(bool enabled) { compress_ = enabled; }
  bool compression() const { return compress_; }

  // Forces every appended segment to stable storage. The write path calls
  // this before the catalog records a segment, so the catalog never points
  // at unsynced bytes. Thread-safe.
  Status Sync();

  // Reads one segment back. Thread-safe; may run concurrently with writes.
  Result<BinaryChunk> ReadSegment(const PageRef& page) const;

  // Validates that `page` lies entirely inside the file and checks every
  // byte of it: the header, the directory's bounds and each column's CRC.
  // Decodes nothing. Restart reconciliation uses this to detect torn or
  // phantom segments.
  Status VerifySegment(const PageRef& page) const;

  // Reads `columns` of `chunk_meta` from as many of its stored segments as
  // needed (earliest segments first). Per segment it reads the header, then
  // the projected column bodies in one read, and checks and decodes only
  // those: the result holds exactly `columns`. Fails with NotFound if some
  // column is not loaded.
  Result<BinaryChunk> ReadChunkColumns(const ChunkMetadata& chunk_meta,
                                       const std::vector<size_t>& columns) const;

  uint64_t bytes_written() const;
  const std::string& path() const { return path_; }

  // Mirrors segment writes into registry metrics: a segment counter, a
  // bytes counter, and an append-latency histogram (serialize + disk
  // append, nanoseconds). nullptr detaches.
  void BindMetrics(obs::Counter* segments_written, obs::Counter* bytes,
                   obs::Histogram* write_nanos);

 private:
  StorageManager(std::string path, std::unique_ptr<WritableFile> writer,
                 RateLimiter* limiter, IoStats* stats);

  // Reads exactly `size` bytes at `offset`; a short read is Corruption.
  Result<std::string> ReadRange(uint64_t offset, uint64_t size) const;

  const std::string path_;
  RateLimiter* limiter_;
  IoStats* stats_;

  std::atomic<bool> compress_{false};

  mutable Mutex write_mu_{LockRank::kStorageWrite, "StorageManager.write_mu"};
  std::unique_ptr<WritableFile> writer_ GUARDED_BY(write_mu_);
  uint64_t next_offset_ GUARDED_BY(write_mu_) = 0;
  obs::Counter* segments_metric_ GUARDED_BY(write_mu_) = nullptr;
  obs::Counter* bytes_metric_ GUARDED_BY(write_mu_) = nullptr;
  obs::Histogram* write_nanos_metric_ GUARDED_BY(write_mu_) = nullptr;

  mutable Mutex reader_mu_{LockRank::kStorageRead, "StorageManager.reader_mu"};
  // Lazily opened.
  mutable std::unique_ptr<RandomAccessFile> reader_ GUARDED_BY(reader_mu_);
};

}  // namespace scanraw

#endif  // SCANRAW_DB_STORAGE_MANAGER_H_
