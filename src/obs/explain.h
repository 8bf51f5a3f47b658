// ExplainReport: the per-query EXPLAIN ANALYZE artifact. One report is
// filled per executed query from the SpanProfiler aggregate plus deltas of
// the pipeline counters taken across the query (chunk provenance, min/max
// pruning, speculative writes, cache and positional-map hit rates), then
// rendered as aligned text for the CLI or as JSON for tooling. Pure data +
// formatting; the filling logic lives with the operators that own the
// counters (ScanRaw::ExecuteQuery, ScanRawManager::Query).
#ifndef SCANRAW_OBS_EXPLAIN_H_
#define SCANRAW_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span_profiler.h"

namespace scanraw {
namespace obs {

struct ExplainStage {
  std::string name;
  double busy_seconds = 0;     // thread-seconds across workers
  double covered_seconds = 0;  // wall-clock footprint (overlap merged)
  uint64_t spans = 0;
  size_t threads = 0;
  bool is_wait = false;
};

struct ExplainReport {
  std::string table;
  std::string policy;
  double wall_seconds = 0;
  size_t workers = 0;            // conversion pool size
  size_t threads_accounted = 0;  // distinct threads that recorded spans

  std::vector<ExplainStage> stages;  // zero-span stages omitted

  // Critical path: the busy stage whose spans cover the largest part of
  // the query's wall time (the stage that bounded the query).
  std::string critical_stage;
  double critical_seconds = 0;
  double critical_fraction = 0;

  // Accounting identity: busy + blocked + idle == wall * threads_accounted
  // (idle is computed as the residual).
  double busy_seconds_total = 0;
  double blocked_seconds_total = 0;
  double idle_seconds_total = 0;

  // Chunk provenance (§3.2.1 delivery order) and statistics pruning.
  uint64_t chunks_from_cache = 0;
  uint64_t chunks_from_db = 0;
  uint64_t chunks_from_raw = 0;
  uint64_t chunks_skipped = 0;  // min/max statistics proved no row matches

  // Speculative-loading payoff (§4).
  uint64_t chunks_written = 0;
  uint64_t speculative_triggers = 0;
  uint64_t read_blocked_events = 0;
  uint64_t bytes_written = 0;
  // Bytes of written segments attributed (proportionally within a segment)
  // to columns this query's spec required — how much of the speculative
  // write budget went to data the workload demonstrably wants.
  uint64_t useful_bytes_written = 0;
  // True when background WRITE made loading progress during this query —
  // i.e. the disk-idle gaps the scheduler detected were converted into
  // loaded chunks.
  bool speculation_paid_off = false;

  // Speculative parallel TOKENIZE / record discovery
  // (format/parallel_chunker): ranges fanned out, ranges whose speculated
  // start quote-parity proved wrong, and bytes re-scanned to repair them.
  uint64_t tokenize_ranges = 0;
  uint64_t tokenize_misspeculations = 0;
  uint64_t tokenize_repair_bytes = 0;
  // Of tokenize_ranges: run by the participating caller vs. by the worker
  // pool's helpers (a caller that runs them all never fanned out).
  uint64_t tokenize_ranges_by_caller = 0;
  uint64_t tokenize_ranges_by_helpers = 0;

  // Memory traffic across the query: acquires of the process-wide chunk
  // buffer pool served from its free lists (hits) or by fresh buffers
  // (misses), and the process's minor page faults (first touches of fresh
  // pages). All three are process-wide deltas: queries running at the same
  // time count each other's traffic.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t minor_faults = 0;

  // Cache behavior across the query. Positional-map numbers are
  // query-scoped (counted at the lookup sites, not deltas of shared
  // counters); posmap_disk_hits is the `posmap-disk` provenance — chunks
  // whose map came from the persisted sidecar rather than this process's
  // own TOKENIZE work.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t posmap_hits = 0;
  uint64_t posmap_misses = 0;
  uint64_t posmap_disk_hits = 0;
  // Chunk bytes put through TOKENIZE this query; 0 on a warm-restart scan
  // fully covered by persisted maps.
  uint64_t bytes_tokenized = 0;

  double loaded_fraction_before = 0;
  double loaded_fraction_after = 0;

  // History-driven loading (ScanRawOptions::advisor): whether the advisor
  // filtered speculative writes this query, and its reasoning line.
  bool advisor_used = false;
  std::string advisor_note;

  uint64_t spans_dropped = 0;

  // useful_bytes_written / bytes_written; 1.0 when nothing was written.
  double WriteEfficiency() const {
    return bytes_written == 0 ? 1.0
                              : static_cast<double>(useful_bytes_written) /
                                    static_cast<double>(bytes_written);
  }

  // Copies the profiler aggregate into the stage table and the critical
  // path / accounting fields (everything else is the caller's).
  void FillFromProfile(const SpanProfiler::Report& report);

  double HitRate(uint64_t hits, uint64_t misses) const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }

  std::string ToText() const;
  std::string ToJson() const;
};

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_EXPLAIN_H_
