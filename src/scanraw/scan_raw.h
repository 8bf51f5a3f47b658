// ScanRaw: the paper's physical operator for in-situ processing over raw
// files (§3). A super-scalar pipeline — READ -> TOKENIZE* -> PARSE* ->
// binary chunk cache -> execution engine — with WRITE speculatively storing
// converted chunks in the database whenever the disk would otherwise idle
// (§4). The operator is attached to a raw file, not to a query: its cache
// and catalog state persist across queries, and it morphs into a heap scan
// as the file gets loaded.
#ifndef SCANRAW_SCANRAW_SCAN_RAW_H_
#define SCANRAW_SCANRAW_SCAN_RAW_H_

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "db/catalog.h"
#include "db/storage_manager.h"
#include "exec/query.h"
#include "io/disk_arbiter.h"
#include "io/file.h"
#include "io/rate_limiter.h"
#include "db/sketches.h"
#include "obs/explain.h"
#include "obs/progress.h"
#include "obs/query_log.h"
#include "obs/span_profiler.h"
#include "obs/stage.h"
#include "obs/telemetry.h"
#include "pipeline/bounded_queue.h"
#include "scanraw/chunk_buffer_pool.h"
#include "scanraw/chunk_cache.h"
#include "scanraw/options.h"
#include "scanraw/positional_map_cache.h"

namespace scanraw {

// Per-operator pipeline counters, one enum-indexed table. Each has one
// registry name (kProfileCounterNames in scan_raw.cc, "scanraw." prefix).
enum class ProfileCounter : uint8_t {
  kChunksFromCache,
  kChunksFromDb,
  kChunksFromRaw,
  kChunksWritten,
  kChunksSkipped,  // min/max pruning (§3.3)
  kReadBlockedEvents,
  kSpeculativeTriggers,
  // Failed background WRITEs degraded to raw-side processing (the chunk
  // stays unloaded and will be re-extracted or retried), and speculative
  // triggers suppressed while backing off after such a failure.
  kWriteFailures,
  kWriteBackoffs,
  // Written-segment bytes attributed (proportionally) to columns the
  // active query required — the "useful" share of the write budget.
  kUsefulBytesWritten,
  // Throughput feed for the live-rate rings (rows/s, bytes/s on /metrics):
  // rows delivered to the engine and raw bytes converted by PARSE.
  kRowsDelivered,
  kBytesConverted,
  // Speculative parallel TOKENIZE (format/parallel_chunker): byte ranges
  // fanned out across record scans and chunk tokenizes, boundary
  // misspeculations caught at stitch points, and bytes re-scanned by the
  // repair path.
  kTokenizeRanges,
  kTokenizeMisspeculations,
  kTokenizeRepairBytes,
  // Chunk bytes put through TOKENIZE (full, extend, or parallel path). A
  // warm restart with a persisted posmap answers mapped queries with this
  // staying 0 — the restart_warm bench gates on exactly that.
  kBytesTokenized,
  // Chunks whose positional map came from a persisted sidecar
  // (`posmap-disk` provenance).
  kPosmapDiskChunks,
};

inline constexpr size_t kNumProfileCounters =
    static_cast<size_t>(ProfileCounter::kPosmapDiskChunks) + 1;

// Per-stage profiling ("special function calls to harness detailed
// profiling data", §5): the stage totals every StageScope of the operator
// feeds, plus the counter table. Counters are kept per operator — the
// manager's registry is shared by every table, so EXPLAIN deltas and
// profile() must not read it — and, once bound, mirrored into the registry.
class PipelineProfile {
 public:
  // Every counter at one instant; EXPLAIN reports `after - before`.
  struct Counts {
    std::array<uint64_t, kNumProfileCounters> values{};
    uint64_t operator[](ProfileCounter c) const {
      return values[static_cast<size_t>(c)];
    }
    Counts operator-(const Counts& base) const;
  };

  // Per-stage chunk counts and nanoseconds (nanos / chunks is the
  // per-chunk stage time of Figure 5); READ, TOKENIZE, PARSE and WRITE are
  // mirrored into the scanraw.stage.*_nanos histograms.
  obs::StageTotals stages;

  void Add(ProfileCounter c, uint64_t n = 1) {
    if (n == 0) return;
    const size_t i = static_cast<size_t>(c);
    counters_[i].fetch_add(n, std::memory_order_relaxed);
    if (mirrors_[i] != nullptr) mirrors_[i]->Add(n);
  }
  uint64_t Get(ProfileCounter c) const {
    return counters_[static_cast<size_t>(c)].load();
  }
  Counts Snapshot() const;

  // Resolves the registry mirrors and stage histograms. Call before the
  // pipeline runs.
  void Bind(obs::MetricsRegistry* registry);

  // Zeroes the stage totals, the counters, and — when bound — the
  // registry-backed mirrors (histograms included).
  //
  // Contract: reset is single-threaded. Each store is individually atomic,
  // but the fields are cleared one by one, so a concurrently running query
  // would observe (and write into) a half-cleared profile. Quiesce the
  // operator first: finish every QueryRun and drain WaitForWrites().
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kNumProfileCounters> counters_{};
  // Null until Bind. Operators sharing one registry share these objects,
  // so the registry view aggregates across operators.
  std::array<obs::Counter*, kNumProfileCounters> mirrors_{};
};

// The tokenize dialect a ScanRaw with `options` uses for `schema` — the
// single source of truth shared by the TOKENIZE stage, the posmap cache,
// and the sidecar load/save paths, so a persisted map can never be matched
// against rules it was not built under.
PosmapDialect TokenizeDialectFor(const Schema& schema,
                                 const ScanRawOptions& options);

// The query-log event of one query on `table`: the spec's columns, then
// either the report's counters and the result's row counts (a completed
// query) or the failure status. `report` and `result` may be null.
obs::QueryLogEvent MakeQueryLogEvent(std::string_view table,
                                     std::string_view policy,
                                     const QuerySpec& spec,
                                     const obs::ExplainReport* report,
                                     const QueryResult* result,
                                     const Status& status);

// Appends `event` to `log`; a failed append is logged, never returned.
void AppendToQueryLog(obs::QueryLog* log, obs::QueryLogEvent event);

class ScanRaw : private obs::SpanSink {
 public:
  // The table must already exist in `catalog` (see ScanRawManager, which
  // creates both). `arbiter` serializes READ/WRITE disk access; pass
  // nullptr to disable arbitration. `raw_limiter` throttles raw-file reads
  // to emulate a fixed-bandwidth device (the StorageManager can carry its
  // own limiter for the database side).
  ScanRaw(std::string table, Catalog* catalog, StorageManager* storage,
          DiskArbiter* arbiter, RateLimiter* raw_limiter,
          ScanRawOptions options);
  ~ScanRaw();
  ScanRaw(const ScanRaw&) = delete;
  ScanRaw& operator=(const ScanRaw&) = delete;

  // A single query's pass over the file. Delivers every chunk exactly once,
  // cached chunks first, then database-resident chunks, then raw chunks
  // (§3.2.1). Obtain via StartQuery; drain with Next() until nullopt; the
  // destructor joins the pipeline (abandoning early is safe).
  class QueryRun : public ChunkStream {
   public:
    ~QueryRun() override;
    QueryRun(const QueryRun&) = delete;
    QueryRun& operator=(const QueryRun&) = delete;

    Result<std::optional<BinaryChunkPtr>> Next() override;

    // Joins this query's pipeline threads (idempotent; the destructor calls
    // it). Background loading keeps draining on the operator's WRITE thread
    // so the safeguard flush overlaps with the next query (§4).
    void Finish();

    // First error raised by any pipeline thread (OK if none).
    Status status() const;

    // Point-in-time utilization of the live pipeline (§3.3 resource
    // management), with its advice state.
    obs::ResourceSample Resources() const;

   private:
    friend class ScanRaw;
    struct Impl;
    explicit QueryRun(std::unique_ptr<Impl> impl);
    std::unique_ptr<Impl> impl_;
  };

  // Starts the pipeline for one query needing `required_columns` (empty =
  // all schema columns). An optional range filter enables statistics-based
  // chunk skipping for database-resident chunks.
  Result<std::unique_ptr<QueryRun>> StartQuery(
      std::vector<size_t> required_columns,
      std::optional<RangePredicate> skip_filter = std::nullopt);

  // Convenience: run a full query through the execution engine. For the
  // synchronous-loading policies (kFullLoad, kInvisibleLoading) this waits
  // for queued writes to drain before returning — loading is part of the
  // query there. Speculative/buffered writes keep draining in the
  // background; the next query's READ contends with them via the arbiter,
  // exactly the §4 admission rule.
  Result<QueryResult> ExecuteQuery(const QuerySpec& spec);

  // EXPLAIN ANALYZE variant: same execution, but when `explain` is non-null
  // it is filled with the query's span profile (per-stage busy time,
  // critical path), chunk provenance and pruning deltas, speculative-write
  // payoff, and cache / positional-map hit rates. Deltas are computed
  // against the operator's shared counters, so the report is meaningful for
  // one query at a time; concurrent queries fold together.
  Result<QueryResult> ExecuteQuery(const QuerySpec& spec,
                                   obs::ExplainReport* explain);

  // Multi-query processing over raw files (the paper's §7 future work):
  // executes several queries in ONE shared pass. The pipeline converts the
  // union of the queries' required columns once; every delivered chunk is
  // fanned out to all query executors. Results are returned in input
  // order. Loading policies apply to the single shared scan.
  Result<std::vector<QueryResult>> ExecuteQueries(
      const std::vector<QuerySpec>& specs);

  // Persists the positional-map cache to the sidecar at `path` through
  // AtomicWriteFile, recording the raw file's exact stat and the operator's
  // tokenize dialect in the header. No-op (returning OK) when persistence
  // is not enabled, the cache is off, or there is nothing to save — an
  // existing sidecar is never clobbered with an empty one. Called after
  // cold scans (when posmap_sidecar_path is set) and by the manager before
  // each catalog save, so the sidecar (data) is durable before the catalog
  // (metadata) that a restart trusts.
  Status SavePositionalMaps(const std::string& path);

  // Pre-populates the cache from a loaded sidecar with `posmap-disk`
  // provenance. Refuses (returning 0) when the sidecar's dialect does not
  // match this operator's tokenize dialect — a map built under different
  // delimiter/quote rules must be rebuilt, not reused. Returns the number
  // of maps inserted.
  size_t PrepopulatePositionalMaps(
      const PosmapDialect& dialect,
      std::vector<std::pair<uint64_t, std::shared_ptr<const PositionalMap>>>
          entries);

  // Blocks until the WRITE queue is empty and no write is in flight.
  void WaitForWrites() EXCLUDES(write_mu_);
  // First error raised by the WRITE thread, sticky (OK if none).
  Status write_status() const EXCLUDES(write_mu_);

  const std::string& table() const { return table_; }
  const ScanRawOptions& options() const { return options_; }
  PipelineProfile& profile() { return profile_; }
  // Telemetry sink wired at construction (null when options.telemetry was
  // unset).
  obs::Telemetry* telemetry() const { return options_.telemetry; }
  ChunkCache& cache() { return cache_; }
  PositionalMapCache& positional_maps() { return positional_maps_; }
  // Distinct/sample sketches collected during conversion; only populated
  // when options.collect_sketches is set.
  const TableSketches& sketches() const { return sketches_; }

  // /statusz section for this operator: load progress, cache occupancy,
  // and — when a query is running — its per-stage span state from the
  // active SpanProfiler. One line per fact, two-space indented.
  std::string StatuszSection() const EXCLUDES(active_mu_);

  // Loading progress, from the catalog.
  double LoadedFraction() const;
  // True once every chunk/column is in the database — the operator can be
  // retired (§3.3: "Whenever it loaded the entire raw file").
  bool FullyLoaded() const;

 private:
  struct WriteRequest {
    uint64_t chunk_index = 0;
    BinaryChunkPtr chunk;
  };

  // Queues `chunk` for loading unless it is already loaded, pending, or the
  // operator is shutting down. Returns true if the write was queued.
  bool EnqueueWrite(uint64_t chunk_index, BinaryChunkPtr chunk);

  // Speculative trigger: called when READ blocks on a full text buffer.
  // Writes the oldest unloaded cached chunk, one at a time (§4).
  void MaybeTriggerSpeculativeWrite();

  // End-of-scan safeguard (§4): queue every unloaded cached chunk.
  void SafeguardFlush();

  // Stand-alone WRITE thread body (runs for the operator's lifetime).
  void WriteLoop();

  // The WRITE thread outlives any single query, so per-query observers
  // (span profiler, progress tracker) and the query's required-column set
  // (for useful-byte attribution of background writes) register here for
  // the query's duration; cleared before the QueryRun is destroyed.
  void RegisterObservers(obs::SpanProfiler* profiler,
                         obs::ProgressTracker* progress,
                         const std::vector<size_t>& required_columns);
  void UnregisterObservers(obs::SpanProfiler* profiler,
                           obs::ProgressTracker* progress);
  // WRITE-thread hooks into the active observers (no-ops when none): the
  // WRITE stage's span sink and the loaded-chunk progress count.
  void RecordSpan(obs::Stage stage, uint32_t tid, int64_t start_nanos,
                  int64_t dur_nanos) override EXCLUDES(active_mu_);
  void NoteChunkLoaded();
  // How many of `columns` the active query's spec required.
  size_t CountRequiredOverlap(const std::vector<size_t>& columns) const
      EXCLUDES(active_mu_);

  // Folds a freshly converted chunk into the sketches exactly once.
  void MaybeUpdateSketches(const BinaryChunk& chunk);

  const std::string table_;
  Catalog* const catalog_;
  StorageManager* const storage_;
  DiskArbiter* const arbiter_;
  RateLimiter* const raw_limiter_;
  const ScanRawOptions options_;

  ChunkCache cache_;
  PositionalMapCache positional_maps_;
  // Buffer recycler shared by READ/PARSE and the chunk release paths.
  const std::shared_ptr<ChunkBufferPool> buffer_pool_ =
      std::make_shared<ChunkBufferPool>();
  TableSketches sketches_;
  // Chunks already folded into the sketches, so re-scans do not bias the
  // reservoir sample (the KMV sketch is naturally idempotent).
  Mutex sketched_mu_{LockRank::kScanSketched, "ScanRaw.sketched_mu"};
  std::set<uint64_t> sketched_chunks_ GUARDED_BY(sketched_mu_);
  PipelineProfile profile_;
  // Advice-state occurrence counters, indexed by obs::Advice (null when
  // telemetry is unset); bumped by the per-query sampler.
  obs::Counter* advice_counters_[obs::kNumAdvice] = {};
  // Watchdog heartbeat board from the telemetry sink (null when telemetry
  // is unset); stages beat through this on every chunk boundary.
  obs::StageHeartbeats* heartbeats_ = nullptr;
  IoStats raw_io_stats_;

  // Chunks with a write queued or in flight, to keep loading exactly-once.
  Mutex pending_mu_{LockRank::kScanPending, "ScanRaw.pending_mu"};
  std::set<uint64_t> pending_writes_ GUARDED_BY(pending_mu_);

  // Per-query observers of the shared WRITE thread (see RegisterObservers).
  mutable Mutex active_mu_{LockRank::kScanActive, "ScanRaw.active_mu"};
  obs::SpanProfiler* active_profiler_ GUARDED_BY(active_mu_) = nullptr;
  obs::ProgressTracker* active_progress_ GUARDED_BY(active_mu_) = nullptr;
  std::set<size_t> active_required_ GUARDED_BY(active_mu_);

  // WRITE thread state.
  BoundedQueue<WriteRequest> write_queue_;
  std::thread write_thread_;
  mutable Mutex write_mu_{LockRank::kScanWrite, "ScanRaw.write_mu"};
  CondVar write_cv_;
  size_t writes_outstanding_ GUARDED_BY(write_mu_) = 0;  // queued + in flight
  Status write_status_ GUARDED_BY(write_mu_);
  // Speculative triggers are suppressed until this deadline after a failed
  // background write (graceful degradation; 0 = no backoff active).
  std::atomic<int64_t> write_backoff_until_nanos_{0};
};

}  // namespace scanraw

#endif  // SCANRAW_SCANRAW_SCAN_RAW_H_
