// BAM-like binary container and its access library (the BAMTools stand-in
// of §5.2). The format is block-compressed binary: varint-coded numeric
// fields, 2-bit-packed sequences, run-length-coded qualities, and an XOR
// keystream *chained across blocks* — each block's key derives from the
// previous block's checksum, so decoding is inherently sequential, exactly
// the property that made BAMTools CPU-bound in the paper (Table 1: "file
// data access and decompression are sequential and handled inside
// BAMTools").
#ifndef SCANRAW_GENOMICS_BAM_LIKE_H_
#define SCANRAW_GENOMICS_BAM_LIKE_H_

#include <memory>
#include <vector>
#include <string>

#include "common/result.h"
#include "exec/query.h"
#include "genomics/sam.h"
#include "io/file.h"

namespace scanraw {

class RateLimiter;

struct BamFileInfo {
  uint64_t num_reads = 0;
  uint64_t file_bytes = 0;
};

// Writes the same record sequence GenerateSamFile(spec) produces, in the
// BAM-like binary format. `records_per_block` is the block granularity.
Result<BamFileInfo> GenerateBamFile(const std::string& path,
                                    const SamGenSpec& spec,
                                    uint64_t records_per_block = 4096);

// BAI-like companion index (§2: "BAI files are indexes built on top of BAM
// files"): per block, its byte offset, record count, first record index,
// and the keystream chain state — exactly the side information needed to
// start decoding mid-file instead of replaying every previous block.
struct BamBlockEntry {
  uint64_t file_offset = 0;
  uint64_t first_record = 0;
  uint32_t record_count = 0;
  uint64_t chain_state = 0;  // keystream state entering this block
};

struct BamIndex {
  uint64_t num_reads = 0;
  std::vector<BamBlockEntry> blocks;

  // Index of the block containing `record`, or blocks.size() if out of
  // range.
  size_t BlockForRecord(uint64_t record) const;
};

// Writes the index next to the BAM-like file ("<bam path>.bai"), sealed
// with a CRC32C footer. Loading rejects a torn, flipped or pre-footer (v1)
// index as Corruption; the caller can rebuild it from the BAM file.
Result<BamIndex> WriteBamIndex(const std::string& bam_path);
Result<BamIndex> LoadBamIndex(const std::string& bai_path);

// Sequential reader — the "generic file access library" interface. By
// construction it cannot skip ahead or decode blocks in parallel. With a
// BAI-like index, SeekToRecord jumps to the containing block using the
// recorded chain state.
class BamReader {
 public:
  static Result<std::unique_ptr<BamReader>> Open(
      const std::string& path, RateLimiter* limiter = nullptr,
      IoStats* stats = nullptr);

  // Positions the reader so the next NextRecord returns record `record`
  // (decoding skips the earlier records of the containing block only).
  Status SeekToRecord(const BamIndex& index, uint64_t record);

  // Reads the next record. Returns false at end of file.
  Result<bool> NextRecord(SamRecord* record);

  uint64_t num_reads() const { return num_reads_; }

 private:
  BamReader(std::unique_ptr<RandomAccessFile> file, uint64_t num_reads);

  Status LoadNextBlock();

  std::unique_ptr<RandomAccessFile> file_;
  uint64_t num_reads_ = 0;
  uint64_t file_pos_ = 0;
  uint64_t chain_state_ = 0;   // keystream seed carried across blocks
  std::string block_;          // decoded current block
  size_t block_pos_ = 0;
  uint32_t block_records_left_ = 0;
  uint32_t pending_skip_ = 0;  // records to discard after a seek
};

// MAP-only ScanRaw integration (§5.2): pulls records through the sequential
// library and maps them into binary chunks for the execution engine.
class BamChunkStream : public ChunkStream {
 public:
  BamChunkStream(std::unique_ptr<BamReader> reader, size_t chunk_rows);
  Result<std::optional<BinaryChunkPtr>> Next() override;

 private:
  std::unique_ptr<BamReader> reader_;
  const size_t chunk_rows_;
  uint64_t next_chunk_index_ = 0;
  bool done_ = false;
};

// Maps a batch of records into the SAM-schema binary representation (the
// MAP stage: no tokenizing, no parsing).
BinaryChunk MapRecordsToChunk(const std::vector<SamRecord>& records,
                              uint64_t chunk_index);

}  // namespace scanraw

#endif  // SCANRAW_GENOMICS_BAM_LIKE_H_
