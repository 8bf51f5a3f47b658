#include "scanraw/scan_raw.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "common/clock.h"
#include "io/fault_injection.h"
#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/load_advisor.h"
#include "obs/periodic_thread.h"
#include "obs/query_log.h"
#include "columnar/chunk_sort.h"
#include "db/statistics.h"
#include "format/parallel_chunker.h"
#include "format/parser.h"
#include "format/json_tokenizer.h"
#include "format/tokenizer.h"
#include "pipeline/thread_pool.h"
#include "scanraw/chunk_buffer_pool.h"
#include "scanraw/raw_reader.h"

namespace scanraw {

std::string_view LoadPolicyName(LoadPolicy policy) {
  switch (policy) {
    case LoadPolicy::kExternalTables:
      return "external-tables";
    case LoadPolicy::kFullLoad:
      return "full-load";
    case LoadPolicy::kSpeculativeLoading:
      return "speculative-loading";
    case LoadPolicy::kInvisibleLoading:
      return "invisible-loading";
    case LoadPolicy::kBufferedLoading:
      return "buffered-loading";
  }
  return "unknown";
}

namespace {

// Registry names of the ProfileCounter table, in enum order.
constexpr std::array<std::string_view, kNumProfileCounters>
    kProfileCounterNames = {
        "scanraw.chunks_from_cache",
        "scanraw.chunks_from_db",
        "scanraw.chunks_from_raw",
        "scanraw.chunks_written",
        "scanraw.chunks_skipped",
        "scanraw.read_blocked_events",
        "scanraw.speculative_triggers",
        "scanraw.write_failures",
        "scanraw.write_backoffs",
        "scanraw.useful_bytes_written",
        "scanraw.rows_delivered",
        "scanraw.bytes_converted",
        "scanraw.tokenize.ranges",
        "scanraw.tokenize.misspeculations",
        "scanraw.tokenize.repair_bytes",
        "scanraw.tokenize.bytes",
        "scanraw.posmap.disk_chunks",
        "scanraw.tokenize.ranges_by_caller",
        "scanraw.tokenize.ranges_by_helper",
        "scanraw.pool.buffer_hits",
        "scanraw.pool.buffer_misses",
        "scanraw.minor_faults",
};
static_assert(!kProfileCounterNames.back().empty(), "one name per counter");

// Per-chunk stage latency histograms (nanoseconds).
constexpr std::pair<obs::Stage, std::string_view> kStageHistograms[] = {
    {obs::Stage::kRead, "scanraw.stage.read_nanos"},
    {obs::Stage::kTokenize, "scanraw.stage.tokenize_nanos"},
    {obs::Stage::kParse, "scanraw.stage.parse_nanos"},
    {obs::Stage::kWrite, "scanraw.stage.write_nanos"},
};

}  // namespace

uint64_t MinorPageFaults() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<uint64_t>(usage.ru_minflt);
}

PipelineProfile::Counts PipelineProfile::Counts::operator-(
    const Counts& base) const {
  Counts diff;
  for (size_t i = 0; i < kNumProfileCounters; ++i) {
    diff.values[i] = values[i] - base.values[i];
  }
  return diff;
}

PipelineProfile::Counts PipelineProfile::Snapshot() const {
  Counts counts;
  for (size_t i = 0; i < kNumProfileCounters; ++i) {
    counts.values[i] = counters_[i].load();
  }
  return counts;
}

void PipelineProfile::Bind(obs::MetricsRegistry* registry) {
  for (const auto& [stage, name] : kStageHistograms) {
    stages.BindHistogram(stage, registry->GetHistogram(name));
  }
  for (size_t i = 0; i < kNumProfileCounters; ++i) {
    mirrors_[i] = registry->GetCounter(kProfileCounterNames[i]);
  }
}

void PipelineProfile::Reset() {
  // Registry mirrors follow the same single-threaded-reset contract; the
  // histograms are shared objects, so this clears the aggregated view too.
  stages.Reset();
  for (size_t i = 0; i < kNumProfileCounters; ++i) {
    counters_[i].store(0);
    if (mirrors_[i] != nullptr) mirrors_[i]->Reset();
  }
}

namespace {

bool ChunkHasColumns(const BinaryChunk& chunk,
                     const std::vector<size_t>& columns) {
  for (size_t c : columns) {
    if (!chunk.HasColumn(c)) return false;
  }
  return true;
}

}  // namespace

obs::QueryLogEvent MakeQueryLogEvent(std::string_view table,
                                     std::string_view policy,
                                     const QuerySpec& spec,
                                     const obs::ExplainReport* report,
                                     const QueryResult* result,
                                     const Status& status) {
  obs::QueryLogEvent event;
  event.table = std::string(table);
  event.policy = std::string(policy);
  if (!status.ok()) event.status = status.ToString();
  event.columns = spec.RequiredColumns();
  if (spec.predicate.range.has_value()) {
    event.predicate_columns.push_back(spec.predicate.range->column);
  }
  if (spec.predicate.pattern.has_value()) {
    event.predicate_columns.push_back(spec.predicate.pattern->column);
  }
  if (result != nullptr) {
    event.rows_scanned = result->rows_scanned;
    event.rows_matched = result->rows_matched;
  }
  if (report == nullptr) return event;
  event.wall_seconds = report->wall_seconds;
  for (const obs::ExplainStage& stage : report->stages) {
    event.stage_busy_seconds.emplace_back(stage.name, stage.busy_seconds);
  }
  event.chunks_from_cache = report->chunks_from_cache;
  event.chunks_from_db = report->chunks_from_db;
  event.chunks_from_raw = report->chunks_from_raw;
  event.chunks_skipped = report->chunks_skipped;
  event.chunks_written = report->chunks_written;
  event.speculative_triggers = report->speculative_triggers;
  event.bytes_written = report->bytes_written;
  event.useful_bytes_written = report->useful_bytes_written;
  event.cache_hit_rate =
      report->HitRate(report->cache_hits, report->cache_misses);
  event.posmap_hit_rate =
      report->HitRate(report->posmap_hits, report->posmap_misses);
  event.speculation_paid_off = report->speculation_paid_off;
  event.advisor_used = report->advisor_used;
  return event;
}

void AppendToQueryLog(obs::QueryLog* log, obs::QueryLogEvent event) {
  const Status append = log->Append(std::move(event));
  if (!append.ok()) {
    // The log is advisory: a failed append never fails the query.
    LOG_WARN("scanraw: query log append failed: %s",
             append.ToString().c_str());
  }
}

// ------------------------------------------------------------ QueryRun ----

// The per-query pipeline: a READ thread, TOKENIZE/PARSE consumer threads
// backed by a shared worker pool, and the bounded buffers between them.
// Queue members are declared before the pool and the stand-alone threads so
// they outlive every worker during destruction.
struct ScanRaw::QueryRun::Impl {
  struct Tokenized {
    std::shared_ptr<TextChunk> text;
    std::shared_ptr<const PositionalMap> map;
  };

  Impl(ScanRaw* parent_op, std::vector<size_t> columns,
       std::optional<RangePredicate> filter, TableMetadata snapshot)
      : parent(parent_op),
        required_columns(std::move(columns)),
        skip_filter(std::move(filter)),
        meta(std::move(snapshot)),
        text_q(std::max<size_t>(1, parent_op->options_.text_buffer_capacity)),
        pos_q(std::max<size_t>(1,
                               parent_op->options_.position_buffer_capacity)),
        out_q(std::max<size_t>(1, parent_op->options_.output_buffer_capacity)),
        pool(parent_op->options_.num_workers),
        invisible_budget(static_cast<int64_t>(
            parent_op->options_.invisible_chunks_per_query)) {
    obs::Telemetry* telemetry = parent->options_.telemetry;
    if (telemetry != nullptr) {
      obs::MetricsRegistry& registry = telemetry->metrics();
      pool.BindMetrics(registry.GetGauge("scanraw.pool.busy_workers"),
                       registry.GetGauge("scanraw.pool.queue_depth"),
                       registry.GetCounter("scanraw.pool.tasks_submitted"));
      if (parent->options_.resource_sample_interval_ms > 0) {
        sampler.emplace(
            std::chrono::milliseconds(
                parent->options_.resource_sample_interval_ms),
            [this, telemetry] {
              telemetry->resources().Append(ProbeResources());
            });
      }
    }
    // Progress totals are known only once the layout is (discovery scans
    // report byte counts without a percentage). Skipped chunks are excluded
    // so the fraction reaches 1.0.
    if (meta.layout_known) {
      uint64_t total_bytes = 0;
      uint64_t total_chunks = 0;
      for (const ChunkMetadata& cm : meta.chunks) {
        if (skip_filter.has_value() &&
            cm.CanSkipForRange(skip_filter->column, skip_filter->lo,
                               skip_filter->hi)) {
          continue;
        }
        total_bytes += cm.raw_size;
        ++total_chunks;
      }
      progress.set_totals(total_bytes, total_chunks);
    }
    if (parent->options_.progress_callback) {
      reporter.emplace(
          std::chrono::milliseconds(
              std::max(1, parent->options_.progress_interval_ms)),
          [this] { parent->options_.progress_callback(progress.Snapshot()); });
    }
  }

  void Start() {
    const ChunkBufferPool* buffers = ChunkBufferPool::Instance();
    pool_hits_base = buffers->hits();
    pool_misses_base = buffers->misses();
    minor_faults_base = MinorPageFaults();
    profiler.Begin();  // re-anchor: setup (catalog reads) is not query time
    parent->RegisterObservers(&profiler, &progress, required_columns);
    read_thread = std::thread([this] { ReadLoop(); });
    tokenize_thread = std::thread([this] { TokenizeLoop(); });
    parse_thread = std::thread([this] { ParseLoop(); });
    if (sampler.has_value()) sampler->Start();
    if (reporter.has_value()) reporter->Start();
  }

  // Point-in-time utilization of the live pipeline (§3.3).
  obs::ResourceSample SnapshotResources() const {
    obs::ResourceSample sample;
    sample.ts_nanos = RealClock::Instance()->NowNanos();
    sample.text_buffer_size = text_q.size();
    sample.text_buffer_capacity = text_q.capacity();
    sample.position_buffer_size = pos_q.size();
    sample.position_buffer_capacity = pos_q.capacity();
    sample.output_buffer_size = out_q.size();
    sample.output_buffer_capacity = out_q.capacity();
    sample.busy_workers = pool.busy_workers();
    sample.num_workers = pool.num_workers();
    sample.cache_size = parent->cache_.size();
    sample.cache_capacity = parent->cache_.capacity();
    if (parent->arbiter_ != nullptr) {
      sample.disk_reader_busy_nanos = parent->arbiter_->reader_busy_nanos();
      sample.disk_writer_busy_nanos = parent->arbiter_->writer_busy_nanos();
    }
    sample.advice = obs::ComputeAdvice(sample);
    return sample;
  }

  // Sampler probe: one §3.3 resource-advice time-series entry, with the
  // advice occurrence mirrored into the registry counters.
  obs::ResourceSample ProbeResources() const {
    const obs::ResourceSample sample = SnapshotResources();
    // Piggyback the time-series rings on the probe cadence: while a query
    // runs, this thread is the sampler; between queries, scrapes are.
    if (parent->options_.telemetry != nullptr) {
      parent->options_.telemetry->timeseries().MaybeSample(sample.ts_nanos);
    }
    obs::Counter* advice_counter =
        parent->advice_counters_[static_cast<size_t>(sample.advice)];
    if (advice_counter != nullptr) advice_counter->Add(1);
    return sample;
  }

  void ReportError(const Status& status) {
    obs::FlightRecord(obs::FlightEvent::kError,
                      static_cast<uint64_t>(status.code()), 0);
    {
      MutexLock lock(status_mu);
      if (first_error.ok()) first_error = status;
    }
    // Unblock the whole pipeline; Pop drains what is already buffered.
    text_q.Close();
    pos_q.Close();
    out_q.Close();
  }

  Status GetStatus() const {
    MutexLock lock(status_mu);
    return first_error;
  }

  // Pushes a raw text chunk, signalling the speculative trigger when READ
  // blocks on a full buffer (§4). Returns false if the pipeline is aborting.
  bool PushText(TextChunk chunk) {
    if (text_q.TryPush(std::move(chunk))) return true;
    parent->profile_.Add(ProfileCounter::kReadBlockedEvents);
    obs::FlightRecord(obs::FlightEvent::kReadBlocked, chunk.chunk_index);
    parent->MaybeTriggerSpeculativeWrite();
    return text_q.Push(std::move(chunk));
  }

  void ReadLoop() {
    // Active for the whole loop: READ blocked on the arbiter or a full text
    // buffer is still "in" the stage, and a wedge there is exactly what the
    // watchdog must see as active-with-frozen-beats.
    obs::StageHeartbeats::Scope heartbeat(parent->heartbeats_,
                                          obs::Stage::kRead);
    if (!meta.layout_known) {
      DiscoveryScan();
    } else {
      KnownLayoutScan();
    }
    text_q.Close();
  }

  // Text dialect for record discovery and TOKENIZE, from the options.
  RecordDialect Dialect() const {
    RecordDialect dialect;
    dialect.quoted = parent->options_.quoted_fields &&
                     parent->options_.raw_format == RawFormat::kDelimitedText;
    return dialect;
  }

  // Worker pool for the speculative parallel range scans; null keeps the
  // frozen sequential reference path.
  ThreadPool* ScanPool() {
    return parent->options_.parallel_tokenize && pool.num_workers() > 0
               ? &pool
               : nullptr;
  }

  // Folds the speculation outcomes accrued since `seen` into the profile
  // counters (live — per chunk, not per scan).
  void AddSpeculation(const SpeculationStats& cur,
                      const SpeculationStats& seen = {}) {
    PipelineProfile& p = parent->profile_;
    p.Add(ProfileCounter::kTokenizeRanges, cur.ranges - seen.ranges);
    p.Add(ProfileCounter::kTokenizeRangesByCaller,
          cur.fan_out.by_caller - seen.fan_out.by_caller);
    p.Add(ProfileCounter::kTokenizeRangesByHelper,
          cur.fan_out.by_helpers - seen.fan_out.by_helpers);
    p.Add(ProfileCounter::kTokenizeMisspeculations,
          cur.misspeculations - seen.misspeculations);
    p.Add(ProfileCounter::kTokenizeRepairBytes,
          cur.repair_bytes - seen.repair_bytes);
  }

  // First access to the file: sequential scan, chunk layout recorded into
  // the catalog as chunks are produced.
  void DiscoveryScan() {
    auto chunker = SequentialChunker::Open(
        meta.raw_path, parent->options_.chunk_rows, parent->raw_limiter_,
        &parent->raw_io_stats_, ChunkBufferPool::Instance(), Dialect(),
        ScanPool());
    if (!chunker.ok()) {
      ReportError(chunker.status());
      return;
    }
    SpeculationStats spec_seen;
    while (true) {
      auto next = [&]() -> Result<std::optional<TextChunk>> {
        ScopedDiskAccess disk(parent->arbiter_, DiskUser::kReader);
        obs::StageScope stage(sinks, obs::Stage::kRead);
        auto read = (*chunker)->Next();
        if (read.ok() && read->has_value()) {
          stage.set_chunk((*read)->chunk_index);
          stage.set_detail((*read)->data.size());
        } else if (read.ok()) {
          stage.Cancel();  // EOF probe, not a chunk read
        }
        return read;
      }();
      if (!next.ok()) {
        ReportError(next.status());
        return;
      }
      AddSpeculation((*chunker)->speculation(), spec_seen);
      spec_seen = (*chunker)->speculation();
      if (!next->has_value()) break;
      TextChunk& chunk = **next;
      ChunkMetadata cm;
      cm.chunk_index = chunk.chunk_index;
      cm.raw_offset = chunk.file_offset;
      cm.raw_size = chunk.data.size();
      cm.num_rows = chunk.num_rows();
      Status s = parent->catalog_->AppendChunk(parent->table_, cm);
      if (!s.ok()) {
        ReportError(s);
        return;
      }
      parent->profile_.Add(ProfileCounter::kChunksFromRaw);
      if (!PushText(std::move(chunk))) return;
    }
    Status s = parent->catalog_->MarkLayoutComplete(parent->table_);
    if (!s.ok()) ReportError(s);
  }

  // Later accesses: deliver cached chunks first, then database-resident
  // chunks, then re-read the remaining raw chunks (§3.2.1).
  void KnownLayoutScan() {
    std::vector<std::pair<uint64_t, BinaryChunkPtr>> cached;
    std::vector<const ChunkMetadata*> from_db;
    std::vector<const ChunkMetadata*> from_raw;
    for (const ChunkMetadata& cm : meta.chunks) {
      if (skip_filter.has_value() &&
          cm.CanSkipForRange(skip_filter->column, skip_filter->lo,
                             skip_filter->hi)) {
        // min/max proved no match (§3.3)
        parent->profile_.Add(ProfileCounter::kChunksSkipped);
        continue;
      }
      BinaryChunkPtr hit = parent->cache_.Lookup(cm.chunk_index);
      if (hit != nullptr && ChunkHasColumns(*hit, required_columns)) {
        cached.emplace_back(cm.chunk_index, std::move(hit));
      } else if (cm.HasColumnsLoaded(required_columns)) {
        from_db.push_back(&cm);
      } else {
        from_raw.push_back(&cm);
      }
    }

    // Cache hits reach the span store, the totals and READ's heartbeat;
    // the flight ring keeps to the conversion lifecycle.
    const obs::StageSinks cache_sinks{.spans = sinks.spans,
                                      .totals = sinks.totals,
                                      .heartbeats = sinks.heartbeats};
    for (auto& [index, chunk] : cached) {
      obs::StageScope stage(cache_sinks, obs::Stage::kCacheHit,
                            obs::ChunkSource::kCache, index);
      parent->profile_.Add(ProfileCounter::kChunksFromCache);
      // Invisible loading charges its per-query quota against any unloaded
      // chunk that passes through, cached or freshly converted.
      if (parent->options_.policy == LoadPolicy::kInvisibleLoading) {
        MaybeInvisibleWrite(index, chunk);
      }
      if (index < meta.chunks.size()) {
        progress.AddBytes(meta.chunks[index].raw_size);
      }
      progress.CountChunk();
      if (!out_q.Push(std::move(chunk))) return;
    }

    for (const ChunkMetadata* cm : from_db) {
      auto chunk = [&] {
        ScopedDiskAccess disk(parent->arbiter_, DiskUser::kReader);
        obs::StageScope stage(sinks, obs::Stage::kRead, obs::ChunkSource::kDb,
                              cm->chunk_index);
        stage.set_detail(cm->raw_size);
        return parent->storage_->ReadChunkColumns(*cm, required_columns);
      }();
      if (!chunk.ok()) {
        ReportError(chunk.status());
        return;
      }
      auto ptr = std::make_shared<const BinaryChunk>(std::move(*chunk));
      parent->profile_.Add(ProfileCounter::kChunksFromDb);
      progress.AddBytes(cm->raw_size);
      progress.CountChunk();
      // Database chunks are cached too (pre-fetching works for both sources,
      // §3.1) and arrive already loaded.
      HandleEvictions(
          parent->cache_.Insert(cm->chunk_index, ptr, /*loaded=*/true));
      if (!out_q.Push(std::move(ptr))) return;
    }

    if (from_raw.empty()) return;
    auto file = RandomAccessFile::Open(meta.raw_path, parent->raw_limiter_,
                                       &parent->raw_io_stats_);
    if (!file.ok()) {
      ReportError(file.status());
      return;
    }
    for (const ChunkMetadata* cm : from_raw) {
      SpeculationStats spec;
      auto read = [&] {
        ScopedDiskAccess disk(parent->arbiter_, DiskUser::kReader);
        obs::StageScope stage(sinks, obs::Stage::kRead,
                              obs::ChunkSource::kRaw, cm->chunk_index);
        stage.set_detail(cm->raw_size);
        return ReadChunkAt(**file, *cm, ChunkBufferPool::Instance(),
                           Dialect(), ScanPool(), &spec);
      }();
      AddSpeculation(spec);
      if (!read.ok()) {
        ReportError(read.status());
        return;
      }
      parent->profile_.Add(ProfileCounter::kChunksFromRaw);
      if (!PushText(std::move(*read))) return;
    }
  }

  // Speculative parallel TOKENIZE for one chunk: runs inline on the
  // TOKENIZE consumer thread — the byte ranges fan out to the worker pool
  // and the caller participates in claiming them, so a saturated pool
  // degrades to the caller tokenizing everything rather than deadlocking
  // behind its own queue. Busy time reaches the span profiler as one span
  // per range from whichever thread ran it; the chunk's stage event skips
  // the span sink, or the ranges would be double-counted.
  void TokenizeParallel(const std::shared_ptr<TextChunk>& text,
                        const TokenizeOptions& topts,
                        const PosmapDialect& dialect, bool use_map_cache) {
    obs::StageHeartbeats::Scope heartbeat(parent->heartbeats_,
                                          obs::Stage::kTokenize);
    SpeculationStats spec;
    auto map = [&]() -> Result<PositionalMap> {
      obs::StageSinks chunk_sinks = sinks;
      chunk_sinks.spans = nullptr;
      obs::StageScope stage(chunk_sinks, obs::Stage::kTokenize,
                            obs::ChunkSource::kRaw, text->chunk_index);
      ParallelTokenizeOptions ptopts;
      ptopts.pool = &pool;
      ptopts.range_span = [this](size_t, int64_t start, int64_t dur) {
        profiler.RecordSpan(obs::Stage::kTokenize, obs::CurrentThreadId(),
                            start, dur);
      };
      auto built = ParallelTokenizeChunk(*text, topts, ptopts, &spec);
      if (built.ok()) stage.set_detail(built->num_rows());
      return built;
    }();
    AddSpeculation(spec);
    PushMap(text, std::move(map), dialect, use_map_cache, /*pooled=*/true);
  }

  // Hands a freshly built map to PARSE, caching it when enabled. The whole
  // chunk counts as tokenized bytes, even when an extend scanned only the
  // unmapped suffix: the fully-mapped skip path in TokenizeLoop is the
  // only zero-byte outcome. A `pooled` map drew its slots from the chunk
  // buffer pool and returns them when its last reference drops (the JSON
  // tokenizer allocates its own).
  void PushMap(const std::shared_ptr<TextChunk>& text,
               Result<PositionalMap> map, const PosmapDialect& dialect,
               bool use_map_cache, bool pooled) {
    parent->profile_.Add(ProfileCounter::kBytesTokenized, text->data.size());
    if (!map.ok()) {
      ReportError(map.status());
      return;
    }
    auto shared = ChunkBufferPool::WrapMap(
        std::move(*map), pooled ? ChunkBufferPool::Instance() : nullptr);
    if (use_map_cache) {
      parent->positional_maps_.Insert(text->chunk_index, shared, dialect);
    }
    pos_q.Push(Tokenized{text, std::move(shared)});
  }

  void TokenizeLoop() {
    TokenizeOptions topts;
    topts.delimiter = meta.schema.delimiter();
    topts.schema_fields = meta.schema.num_columns();
    // Selective tokenizing: stop the scan after the last needed attribute.
    // (JSON members are unordered, so its tokenizer always maps the full
    // schema and selective tokenizing does not apply.)
    const bool json = parent->options_.raw_format == RawFormat::kJsonLines;
    size_t max_needed = 0;
    for (size_t c : required_columns) max_needed = std::max(max_needed, c + 1);
    topts.max_fields = json ? 0 : max_needed;
    topts.quoted = Dialect().quoted;
    topts.recycler = ChunkBufferPool::Instance();

    const bool use_map_cache = parent->options_.cache_positional_maps;
    // Must match TokenizeDialectFor: the dialect tag under which maps are
    // cached, persisted, and validated.
    const PosmapDialect dialect{topts.delimiter, topts.quoted, topts.quote};
    while (auto item = text_q.Pop()) {
      // The chunk is shared by the TOKENIZE and PARSE tasks; wrapping it
      // through the pool returns its text buffer for reuse only when the
      // last holder lets go.
      auto text = ChunkBufferPool::WrapText(std::move(*item),
                                            ChunkBufferPool::Instance());
      // Positional map cache (§2): a cached map that already covers the
      // needed fields skips TOKENIZE outright; a partial one is extended
      // from its last mapped attribute. A map cached under a different
      // dialect is dropped by the cache and counts as a miss.
      std::shared_ptr<const PositionalMap> cached;
      if (use_map_cache) {
        PosmapOrigin origin = PosmapOrigin::kBuilt;
        cached = parent->positional_maps_.Lookup(text->chunk_index, dialect,
                                                 &origin);
        if (cached != nullptr) {
          posmap_hits.fetch_add(1, std::memory_order_relaxed);
          if (origin == PosmapOrigin::kDisk) {
            posmap_disk_hits.fetch_add(1, std::memory_order_relaxed);
            parent->profile_.Add(ProfileCounter::kPosmapDiskChunks);
          }
        } else {
          posmap_misses.fetch_add(1, std::memory_order_relaxed);
        }
        if (cached != nullptr &&
            cached->fields_per_row() >= topts.EffectiveFields()) {
          pos_q.Push(Tokenized{text, cached});
          continue;
        }
      }
      // Speculative parallel tier (on by default). Chunks with a cached
      // partial map stay on the sequential extend path — the cached offsets
      // already skip most of the scan. Chunks too small to split across two
      // ranges (ParallelTokenizeOptions::min_range_bytes) also stay on the
      // submit path: tokenizing them inline would stall this consumer for
      // no fan-out, while a pool task overlaps with the next Pop.
      constexpr size_t kMinParallelBytes = 2 * (size_t{1} << 16);
      if (!json && cached == nullptr && ScanPool() != nullptr &&
          text->data.size() >= kMinParallelBytes) {
        TokenizeParallel(text, topts, dialect, use_map_cache);
        continue;
      }
      {
        MutexLock lock(inflight_mu);
        ++tokenize_inflight;
      }
      pool.Submit([this, text, topts, dialect, cached, use_map_cache, json] {
        obs::StageHeartbeats::Scope heartbeat(parent->heartbeats_,
                                              obs::Stage::kTokenize);
        auto map = [&]() -> Result<PositionalMap> {
          obs::StageScope stage(sinks, obs::Stage::kTokenize,
                                obs::ChunkSource::kRaw, text->chunk_index);
          // Delimited text: extend a cached partial map when available.
          auto built = json ? TokenizeJsonChunk(*text, meta.schema)
                       : cached != nullptr && !cached->explicit_ends()
                           ? ExtendTokenizeMap(*text, *cached, topts)
                           : TokenizeChunk(*text, topts);
          if (built.ok()) stage.set_detail(built->num_rows());
          return built;
        }();
        PushMap(text, std::move(map), dialect, use_map_cache,
                /*pooled=*/!json);
        MutexLock lock(inflight_mu);
        --tokenize_inflight;
        inflight_cv.NotifyAll();
      });
    }
    {
      MutexLock lock(inflight_mu);
      while (tokenize_inflight != 0) inflight_cv.Wait(lock);
    }
    pos_q.Close();
  }

  // Push-down selection applies only when nothing downstream keeps chunk
  // contents (external tables): a filtered chunk must never be cached or
  // loaded (§2).
  bool PushdownActive() const {
    return parent->options_.pushdown_selection &&
           parent->options_.policy == LoadPolicy::kExternalTables &&
           skip_filter.has_value();
  }

  void ParseLoop() {
    ParseOptions popts;
    popts.projected_columns = required_columns;
    popts.recycler = ChunkBufferPool::Instance();
    popts.unescape_quotes = Dialect().quoted;
    if (PushdownActive()) {
      popts.pushdown = PushdownFilter{skip_filter->column, skip_filter->lo,
                                      skip_filter->hi};
    }

    while (auto item = pos_q.Pop()) {
      {
        MutexLock lock(inflight_mu);
        ++parse_inflight;
      }
      Tokenized tokenized = std::move(*item);
      pool.Submit([this, tokenized, popts] {
        obs::StageHeartbeats::Scope heartbeat(parent->heartbeats_,
                                              obs::Stage::kParse);
        auto parsed = [&] {
          obs::StageScope stage(sinks, obs::Stage::kParse,
                                obs::ChunkSource::kRaw,
                                tokenized.text->chunk_index);
          auto chunk = ParseChunk(*tokenized.text, *tokenized.map,
                                  meta.schema, popts);
          if (chunk.ok()) stage.set_detail(chunk->num_rows());
          return chunk;
        }();
        if (parsed.ok()) {
          progress.AddBytes(tokenized.text->data.size());
          progress.CountChunk();
          parent->profile_.Add(ProfileCounter::kRowsDelivered,
                               parsed->num_rows());
          parent->profile_.Add(ProfileCounter::kBytesConverted,
                               tokenized.text->data.size());
          DeliverConverted(ChunkBufferPool::WrapChunk(
              std::move(*parsed), ChunkBufferPool::Instance()));
        } else {
          ReportError(parsed.status());
        }
        MutexLock lock(inflight_mu);
        --parse_inflight;
        inflight_cv.NotifyAll();
      });
    }
    {
      MutexLock lock(inflight_mu);
      while (parse_inflight != 0) inflight_cv.Wait(lock);
    }
    // End of scan: every raw chunk is converted and resident (or already
    // delivered). The safeguard flushes the unloaded cache tail (§4).
    if (parent->options_.policy == LoadPolicy::kSpeculativeLoading &&
        parent->options_.safeguard_enabled && GetStatus().ok()) {
      parent->SafeguardFlush();
    }
    out_q.Close();
  }

  // Caches a freshly converted chunk, applies the WRITE policy, and hands
  // the chunk to the execution engine.
  void DeliverConverted(BinaryChunkPtr chunk) {
    const uint64_t index = chunk->chunk_index();
    obs::FlightRecord(obs::FlightEvent::kDeliver, index, chunk->num_rows());
    // Crash point for the recovery matrix: a chunk has been extracted
    // (tokenized + parsed) but nothing about it has been persisted yet.
    FaultKillPoint("scanraw.extract.converted");
    if (PushdownActive()) {
      // Filtered chunks are incomplete: deliver to the engine only.
      out_q.Push(std::move(chunk));
      return;
    }
    if (parent->options_.collect_sketches) {
      parent->MaybeUpdateSketches(*chunk);
    }
    HandleEvictions(parent->cache_.Insert(index, chunk, /*loaded=*/false));
    switch (parent->options_.policy) {
      case LoadPolicy::kFullLoad:
        parent->EnqueueWrite(index, chunk);
        break;
      case LoadPolicy::kInvisibleLoading:
        MaybeInvisibleWrite(index, chunk);
        break;
      case LoadPolicy::kExternalTables:
      case LoadPolicy::kSpeculativeLoading:
      case LoadPolicy::kBufferedLoading:
        break;  // nothing on the conversion path
    }
    out_q.Push(std::move(chunk));
  }

  // Invisible loading: spend one unit of the per-query quota on this chunk
  // if any remains and the chunk is not already loaded or pending.
  void MaybeInvisibleWrite(uint64_t index, const BinaryChunkPtr& chunk) {
    if (invisible_budget.fetch_sub(1, std::memory_order_acq_rel) > 0) {
      if (!parent->EnqueueWrite(index, chunk)) {
        invisible_budget.fetch_add(1, std::memory_order_acq_rel);
      }
    } else {
      invisible_budget.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  // Buffered loading: a chunk expelled from a full cache is written to the
  // database ([10]'s flush-on-full behavior).
  void HandleEvictions(std::vector<EvictedChunk> evicted) {
    for (const EvictedChunk& ev : evicted) {
      obs::FlightRecord(obs::FlightEvent::kCacheEvict, ev.chunk_index,
                        ev.was_loaded ? 1 : 0);
    }
    if (parent->options_.policy != LoadPolicy::kBufferedLoading) return;
    for (EvictedChunk& ev : evicted) {
      if (!ev.was_loaded) {
        parent->EnqueueWrite(ev.chunk_index, std::move(ev.chunk));
      }
    }
  }

  void JoinAll() {
    if (joined) return;
    joined = true;
    if (read_thread.joinable()) read_thread.join();
    if (tokenize_thread.joinable()) tokenize_thread.join();
    if (parse_thread.joinable()) parse_thread.join();
    pool.WaitIdle();
    // A cleanly drained pipeline pins the tracker to 100% so the reporter's
    // final callback always reports completion — even when totals were
    // estimates (discovery scans) or rounding left the fraction short.
    // Abandoned or failed runs skip the pin: their final callback reports
    // honest partial progress.
    if (!abandoned && GetStatus().ok()) progress.MarkComplete();
    // Every acquire of this run happened on the threads just joined.
    const ChunkBufferPool* buffers = ChunkBufferPool::Instance();
    PipelineProfile& p = parent->profile_;
    p.Add(ProfileCounter::kPoolBufferHits, buffers->hits() - pool_hits_base);
    p.Add(ProfileCounter::kPoolBufferMisses,
          buffers->misses() - pool_misses_base);
    p.Add(ProfileCounter::kMinorFaults,
          std::max(MinorPageFaults(), minor_faults_base) - minor_faults_base);
    if (parent->options_.telemetry != nullptr) {
      parent->options_.telemetry->metrics()
          .GetGauge("scanraw.pool.idle_buffers")
          ->Set(static_cast<int64_t>(buffers->idle_buffers()));
    }
    // Stop after the pipeline drains so the final sample reflects the
    // settled end state.
    if (sampler.has_value()) sampler->Stop();
    if (reporter.has_value()) reporter->Stop();
  }

  void Abandon() {
    abandoned = true;
    // Unblock producers so JoinAll terminates even with a full pipeline.
    text_q.Close();
    pos_q.Close();
    out_q.Close();
    JoinAll();
    // Only now: the profiler/progress objects are about to be destroyed, so
    // background writes that continue past this run are no longer ours.
    // (Unregistration waits for destruction rather than Finish so the WRITE
    // drain of the synchronous-loading policies is still attributed.)
    parent->UnregisterObservers(&profiler, &progress);
  }

  ScanRaw* parent;
  std::vector<size_t> required_columns;
  std::optional<RangePredicate> skip_filter;
  TableMetadata meta;

  BoundedQueue<TextChunk> text_q;
  BoundedQueue<Tokenized> pos_q;
  BoundedQueue<BinaryChunkPtr> out_q;
  ThreadPool pool;

  std::thread read_thread;
  std::thread tokenize_thread;
  std::thread parse_thread;
  // The §3.3 resource sampler: one ResourceLog sample per tick.
  std::optional<obs::PeriodicThread> sampler;
  // Query-scoped observability: every stage records spans here, and the
  // progress tracker feeds the optional reporter thread.
  obs::SpanProfiler profiler;
  // Every sink a chunk-stage event of this query reaches.
  const obs::StageSinks sinks{.spans = &profiler,
                              .totals = &parent->profile_.stages,
                              .heartbeats = parent->heartbeats_,
                              .flight = true};
  obs::ProgressTracker progress;
  // Hands the progress callback a snapshot per tick.
  std::optional<obs::PeriodicThread> reporter;
  bool joined = false;
  bool abandoned = false;

  Mutex inflight_mu{LockRank::kScanInflight, "ScanRaw.inflight_mu"};
  CondVar inflight_cv;
  size_t tokenize_inflight GUARDED_BY(inflight_mu) = 0;
  size_t parse_inflight GUARDED_BY(inflight_mu) = 0;

  // Query-scoped positional-map accounting, counted at the TOKENIZE lookup
  // sites. EXPLAIN reads these instead of deltas over the cache's lifetime
  // counters, so concurrent queries on the same operator cannot pollute
  // each other's numbers.
  std::atomic<uint64_t> posmap_hits{0};
  std::atomic<uint64_t> posmap_misses{0};
  std::atomic<uint64_t> posmap_disk_hits{0};

  std::atomic<int64_t> invisible_budget;

  // Process-wide memory counters at Start(); JoinAll folds the deltas into
  // the profile.
  uint64_t pool_hits_base = 0;
  uint64_t pool_misses_base = 0;
  uint64_t minor_faults_base = 0;

  mutable Mutex status_mu{LockRank::kScanStatus, "ScanRaw.status_mu"};
  Status first_error GUARDED_BY(status_mu);
};

ScanRaw::QueryRun::QueryRun(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

ScanRaw::QueryRun::~QueryRun() {
  if (impl_ != nullptr) impl_->Abandon();
}

Result<std::optional<BinaryChunkPtr>> ScanRaw::QueryRun::Next() {
  auto item = impl_->out_q.Pop();
  if (item.has_value()) {
    return std::optional<BinaryChunkPtr>(std::move(*item));
  }
  Status s = impl_->GetStatus();
  if (!s.ok()) return s;
  return std::optional<BinaryChunkPtr>();
}

void ScanRaw::QueryRun::Finish() { impl_->JoinAll(); }

Status ScanRaw::QueryRun::status() const { return impl_->GetStatus(); }

obs::ResourceSample ScanRaw::QueryRun::Resources() const {
  return impl_->SnapshotResources();
}

// -------------------------------------------------------------- ScanRaw ---

ScanRaw::ScanRaw(std::string table, Catalog* catalog, StorageManager* storage,
                 DiskArbiter* arbiter, RateLimiter* raw_limiter,
                 ScanRawOptions options)
    : table_(std::move(table)),
      catalog_(catalog),
      storage_(storage),
      arbiter_(arbiter),
      raw_limiter_(raw_limiter),
      options_(options),
      cache_(options.cache_capacity_chunks),
      positional_maps_(options.cache_positional_maps
                           ? options.positional_map_cache_chunks
                           : 0,
                       options.cache_positional_maps
                           ? options.positional_map_cache_bytes
                           : 0),
      write_queue_(1 << 20) {
  if (options_.telemetry != nullptr) {
    // Bind every registry mirror before the WRITE thread (or any query
    // pipeline) starts, so the hot paths read the pointers race-free.
    obs::MetricsRegistry& registry = options_.telemetry->metrics();
    profile_.Bind(&registry);
    positional_maps_.BindMetrics(
        registry.GetCounter("scanraw.posmap.hits"),
        registry.GetCounter("scanraw.posmap.misses"),
        registry.GetCounter("scanraw.posmap.disk_hits"),
        registry.GetCounter("scanraw.posmap.dialect_drops"));
    cache_.BindMetrics(registry.GetCounter("scanraw.cache.hits"),
                       registry.GetCounter("scanraw.cache.misses"),
                       registry.GetCounter("scanraw.cache.evictions"),
                       registry.GetCounter("scanraw.cache.biased_evictions"));
    // scanraw.advice.need_more_cpu, ...: AdviceName with '_' for '-'.
    for (size_t i = 0; i < obs::kNumAdvice; ++i) {
      std::string name(obs::AdviceName(static_cast<obs::Advice>(i)));
      std::replace(name.begin(), name.end(), '-', '_');
      advice_counters_[i] = registry.GetCounter("scanraw.advice." + name);
    }
    heartbeats_ = &options_.telemetry->heartbeats();
    if (arbiter_ != nullptr) arbiter_->BindHeartbeats(heartbeats_);
    options_.telemetry->timeseries().TrackPipelineDefaults(&registry);
    if (options_.timeseries_interval_ms != 0) {
      options_.telemetry->timeseries().set_interval_nanos(
          options_.timeseries_interval_ms > 0
              ? static_cast<int64_t>(options_.timeseries_interval_ms) *
                    1'000'000
              : 0);
    }
  }
  write_thread_ = std::thread([this] { WriteLoop(); });
}

ScanRaw::~ScanRaw() {
  write_queue_.Close();
  if (write_thread_.joinable()) write_thread_.join();
}

Result<std::unique_ptr<ScanRaw::QueryRun>> ScanRaw::StartQuery(
    std::vector<size_t> required_columns,
    std::optional<RangePredicate> skip_filter) {
  if (options_.delay_admission_for_writes) {
    // §4's alternative admission rule: do not start until the previous
    // query's background flush has drained.
    WaitForWrites();
  }
  auto meta = catalog_->GetTable(table_);
  if (!meta.ok()) return meta.status();
  if (required_columns.empty()) {
    required_columns.resize(meta->schema.num_columns());
    for (size_t i = 0; i < required_columns.size(); ++i) {
      required_columns[i] = i;
    }
  }
  std::sort(required_columns.begin(), required_columns.end());
  required_columns.erase(
      std::unique(required_columns.begin(), required_columns.end()),
      required_columns.end());
  for (size_t c : required_columns) {
    if (c >= meta->schema.num_columns()) {
      return Status::InvalidArgument(
          StringPrintf("column %zu out of range for table %s", c,
                       table_.c_str()));
    }
  }
  auto impl = std::make_unique<QueryRun::Impl>(
      this, std::move(required_columns), std::move(skip_filter),
      std::move(*meta));
  impl->Start();
  return std::unique_ptr<QueryRun>(new QueryRun(std::move(impl)));
}

Result<QueryResult> ScanRaw::ExecuteQuery(const QuerySpec& spec) {
  return ExecuteQuery(spec, nullptr);
}

Result<QueryResult> ScanRaw::ExecuteQuery(const QuerySpec& spec,
                                          obs::ExplainReport* explain) {
  // Baselines for the per-query deltas the report shows. The counters are
  // shared across queries on this operator, so EXPLAIN assumes one query at
  // a time (concurrent queries fold into each other's deltas).
  const PipelineProfile::Counts base = profile_.Snapshot();
  const uint64_t base_cache_hits = cache_.hits();
  const uint64_t base_cache_misses = cache_.misses();
  const uint64_t base_bytes = storage_ != nullptr ? storage_->bytes_written()
                                                  : 0;
  const uint64_t base_bytes_read = raw_io_stats_.bytes_read.load();
  const int64_t base_disk_wait =
      arbiter_ != nullptr
          ? arbiter_->reader_wait_nanos() + arbiter_->writer_wait_nanos()
          : 0;
  const uint64_t base_throttle_wait =
      raw_limiter_ != nullptr ? raw_limiter_->total_wait_nanos() : 0;
  const double loaded_before = LoadedFraction();
  const int64_t query_start_nanos = RealClock::Instance()->NowNanos();

  // On a failed query the full report is unavailable (the profiler may not
  // have ended cleanly), so the log gets a minimal event: spec, policy, and
  // the error. Failed queries still advance the history's recency clock.
  auto log_failure = [&](const Status& failure) {
    if (options_.query_log != nullptr) {
      obs::QueryLogEvent event =
          MakeQueryLogEvent(table_, LoadPolicyName(options_.policy), spec,
                            nullptr, nullptr, failure);
      event.wall_seconds =
          static_cast<double>(RealClock::Instance()->NowNanos() -
                              query_start_nanos) *
          1e-9;
      event.advisor_used = options_.advisor != nullptr &&
                           options_.policy == LoadPolicy::kSpeculativeLoading;
      AppendToQueryLog(options_.query_log, std::move(event));
    }
  };

  obs::FlightRecord(obs::FlightEvent::kQueryBegin,
                    spec.RequiredColumns().size(),
                    static_cast<uint64_t>(options_.policy));

  std::optional<RangePredicate> skip_filter = spec.predicate.range;
  auto run = StartQuery(spec.RequiredColumns(), skip_filter);
  if (!run.ok()) {
    log_failure(run.status());
    obs::FlightRecord(obs::FlightEvent::kQueryEnd, /*a=*/1, /*b=*/0);
    return run.status();
  }
  obs::SpanProfiler& profiler = (*run)->impl_->profiler;
  auto result = RunQuery(spec, run->get(), &profiler);
  const Status s = FinishQuery(run->get(), result.status(), base,
                               result.ok() ? result->rows_matched : 0);
  if (!s.ok()) {
    log_failure(s);
    return s;
  }

  // The report is filled for an explicit EXPLAIN, and also locally when a
  // query log is attached: the logged event is the report's counters, so
  // logging pays the same (cheap) delta reads EXPLAIN does.
  obs::ExplainReport local_report;
  obs::ExplainReport* report =
      explain != nullptr
          ? explain
          : (options_.query_log != nullptr ? &local_report : nullptr);
  if (report != nullptr) {
    // Include the background-write drain (speculative writes, safeguard
    // flush) in the report's window: EXPLAIN ANALYZE answers "what did this
    // query load", and without the drain those writes would land between
    // the report snapshot and the next query's baseline, credited to
    // neither. The per-query observers stay registered until the run is
    // destroyed, so WRITE spans recorded here still attribute correctly.
    WaitForWrites();

    // The arbiter and limiter expose only cumulative wait totals, so the
    // blocked time enters the profile as one synthetic span per category
    // anchored at query start — correct busy/blocked accounting, excluded
    // from critical-path selection (wait stages always are).
    if (arbiter_ != nullptr) {
      const int64_t d = arbiter_->reader_wait_nanos() +
                        arbiter_->writer_wait_nanos() - base_disk_wait;
      if (d > 0) {
        profiler.RecordSpan(obs::Stage::kDiskWait, /*tid=*/0,
                            profiler.start_nanos(), d);
      }
    }
    if (raw_limiter_ != nullptr) {
      const int64_t d = static_cast<int64_t>(raw_limiter_->total_wait_nanos() -
                                             base_throttle_wait);
      if (d > 0) {
        profiler.RecordSpan(obs::Stage::kThrottleWait, /*tid=*/0,
                            profiler.start_nanos(), d);
      }
    }
    profiler.End();
    report->table = table_;
    report->policy = std::string(LoadPolicyName(options_.policy));
    report->workers = options_.num_workers;
    report->FillFromProfile(profiler.Aggregate());
    const PipelineProfile::Counts delta = profile_.Snapshot() - base;
    report->chunks_from_cache = delta[ProfileCounter::kChunksFromCache];
    report->chunks_from_db = delta[ProfileCounter::kChunksFromDb];
    report->chunks_from_raw = delta[ProfileCounter::kChunksFromRaw];
    report->chunks_skipped = delta[ProfileCounter::kChunksSkipped];
    report->chunks_written = delta[ProfileCounter::kChunksWritten];
    report->speculative_triggers = delta[ProfileCounter::kSpeculativeTriggers];
    report->tokenize_ranges = delta[ProfileCounter::kTokenizeRanges];
    report->tokenize_misspeculations =
        delta[ProfileCounter::kTokenizeMisspeculations];
    report->tokenize_repair_bytes = delta[ProfileCounter::kTokenizeRepairBytes];
    report->tokenize_ranges_by_caller =
        delta[ProfileCounter::kTokenizeRangesByCaller];
    report->tokenize_ranges_by_helpers =
        delta[ProfileCounter::kTokenizeRangesByHelper];
    report->pool_hits = delta[ProfileCounter::kPoolBufferHits];
    report->pool_misses = delta[ProfileCounter::kPoolBufferMisses];
    report->minor_faults = delta[ProfileCounter::kMinorFaults];
    report->read_blocked_events = delta[ProfileCounter::kReadBlockedEvents];
    report->bytes_written =
        (storage_ != nullptr ? storage_->bytes_written() : 0) - base_bytes;
    report->useful_bytes_written = delta[ProfileCounter::kUsefulBytesWritten];
    report->cache_hits = cache_.hits() - base_cache_hits;
    report->cache_misses = cache_.misses() - base_cache_misses;
    // Positional-map numbers are query-scoped — counted at the TOKENIZE
    // lookup sites of this run, not as deltas over the cache's lifetime
    // counters — so concurrent queries cannot pollute them.
    report->posmap_hits = (*run)->impl_->posmap_hits.load();
    report->posmap_misses = (*run)->impl_->posmap_misses.load();
    report->posmap_disk_hits = (*run)->impl_->posmap_disk_hits.load();
    report->bytes_tokenized = delta[ProfileCounter::kBytesTokenized];
    report->loaded_fraction_before = loaded_before;
    report->loaded_fraction_after = LoadedFraction();
    report->speculation_paid_off =
        report->chunks_written > 0 &&
        report->loaded_fraction_after > loaded_before;
    report->advisor_used = options_.advisor != nullptr &&
                           options_.policy == LoadPolicy::kSpeculativeLoading;
    if (report->advisor_used) {
      report->advisor_note = options_.advisor->Plan(table_).note;
    }

    if (options_.query_log != nullptr) {
      obs::QueryLogEvent event = MakeQueryLogEvent(
          table_, report->policy, spec, report, &*result, Status::OK());
      event.bytes_read = raw_io_stats_.bytes_read.load() - base_bytes_read;
      AppendToQueryLog(options_.query_log, std::move(event));
    }
  }
  return result;
}

Status ScanRaw::FinishQuery(QueryRun* run, const Status& engine_status,
                            const PipelineProfile::Counts& base,
                            uint64_t rows_matched) {
  // An engine that quit early would leave the producers blocked on a full
  // output queue; closing the pipeline with its error lets the join finish.
  if (!engine_status.ok() && run->status().ok()) {
    run->impl_->ReportError(engine_status);
  }
  run->Finish();
  Status s = run->status();
  if (s.ok() && (options_.policy == LoadPolicy::kFullLoad ||
                 options_.policy == LoadPolicy::kInvisibleLoading)) {
    // Synchronous-loading regimes: loading is part of the query.
    WaitForWrites();
    s = write_status();
  }
  // After-cold-scan persistence hook: a query that tokenized raw bytes
  // just built (or widened) positional maps; save them now so a crash or
  // restart before the next catalog save still finds a warm index. A scan
  // answered entirely from cached or persisted maps skips the save — the
  // sidecar on disk already covers it, and rewriting would put two fsyncs
  // on the warm-restart fast path. The sidecar is advisory — a failed
  // save never fails the query.
  if (s.ok() && options_.persist_positional_maps &&
      !options_.posmap_sidecar_path.empty() &&
      profile_.Get(ProfileCounter::kBytesTokenized) >
          base[ProfileCounter::kBytesTokenized]) {
    const Status saved = SavePositionalMaps(options_.posmap_sidecar_path);
    if (!saved.ok()) {
      LOG_WARN("scanraw: posmap sidecar save failed: %s",
               saved.ToString().c_str());
    }
  }
  obs::FlightRecord(obs::FlightEvent::kQueryEnd, /*a=*/s.ok() ? 0 : 1,
                    s.ok() ? rows_matched : 0);
  return s;
}

Result<std::vector<QueryResult>> ScanRaw::ExecuteQueries(
    const std::vector<QuerySpec>& specs) {
  if (specs.empty()) return std::vector<QueryResult>();
  // One pass over the union of every query's columns. Chunk skipping is
  // only safe when a chunk is irrelevant to every query, so it is applied
  // only if all queries share the same range predicate.
  std::set<size_t> column_union;
  for (const QuerySpec& spec : specs) {
    for (size_t c : spec.RequiredColumns()) column_union.insert(c);
  }
  std::optional<RangePredicate> shared_filter = specs[0].predicate.range;
  for (const QuerySpec& spec : specs) {
    const auto& r = spec.predicate.range;
    const bool same =
        r.has_value() == shared_filter.has_value() &&
        (!r.has_value() || (r->column == shared_filter->column &&
                            r->lo == shared_filter->lo &&
                            r->hi == shared_filter->hi));
    if (!same) {
      shared_filter.reset();
      break;
    }
  }

  // One query-log event per spec, as if each had run alone (no report: the
  // shared pass's stage and provenance numbers belong to no one query).
  auto log = [&](const std::vector<QueryResult>* results,
                 const Status& status) {
    if (options_.query_log == nullptr) return;
    for (size_t i = 0; i < specs.size(); ++i) {
      AppendToQueryLog(
          options_.query_log,
          MakeQueryLogEvent(table_, LoadPolicyName(options_.policy), specs[i],
                            nullptr,
                            results != nullptr ? &(*results)[i] : nullptr,
                            status));
    }
  };

  obs::FlightRecord(obs::FlightEvent::kQueryBegin, column_union.size(),
                    static_cast<uint64_t>(options_.policy));
  const PipelineProfile::Counts base = profile_.Snapshot();
  auto run = StartQuery(
      std::vector<size_t>(column_union.begin(), column_union.end()),
      shared_filter);
  if (!run.ok()) {
    log(nullptr, run.status());
    obs::FlightRecord(obs::FlightEvent::kQueryEnd, /*a=*/1, /*b=*/0);
    return run.status();
  }
  std::vector<QueryExecutor> executors;
  executors.reserve(specs.size());
  for (const QuerySpec& spec : specs) executors.emplace_back(spec);
  Status consumed;
  while (consumed.ok()) {
    auto next = (*run)->Next();
    if (!next.ok()) {
      consumed = next.status();
      break;
    }
    if (!next->has_value()) break;
    for (QueryExecutor& executor : executors) {
      consumed = executor.Consume(***next);
      if (!consumed.ok()) break;
    }
  }
  std::vector<QueryResult> results;
  results.reserve(executors.size());
  uint64_t rows_matched = 0;
  for (QueryExecutor& executor : executors) {
    results.push_back(executor.Finish());
    rows_matched += results.back().rows_matched;
  }
  const Status s = FinishQuery(run->get(), consumed, base, rows_matched);
  log(s.ok() ? &results : nullptr, s);
  if (!s.ok()) return s;
  return results;
}

PosmapDialect TokenizeDialectFor(const Schema& schema,
                                 const ScanRawOptions& options) {
  // Mirrors the TokenizeOptions built in TokenizeLoop: the schema's
  // delimiter, RecordDialect's quoting rule (quoting applies to delimited
  // text only), and the tokenizer's fixed quote character.
  PosmapDialect dialect;
  dialect.delimiter = schema.delimiter();
  dialect.quoted = options.quoted_fields &&
                   options.raw_format == RawFormat::kDelimitedText;
  dialect.quote = TokenizeOptions{}.quote;
  return dialect;
}

Status ScanRaw::SavePositionalMaps(const std::string& path) {
  if (!options_.persist_positional_maps || !options_.cache_positional_maps ||
      path.empty()) {
    return Status::OK();
  }
  auto meta = catalog_->GetTable(table_);
  if (!meta.ok()) return meta.status();
  const PosmapDialect dialect = TokenizeDialectFor(meta->schema, options_);
  auto snapshot = positional_maps_.Snapshot(dialect);
  // Nothing cached under the current dialect: leave any existing sidecar
  // alone rather than clobbering a warm index with an empty one (e.g. a
  // restart whose queries were all answered from the database).
  if (snapshot.empty()) return Status::OK();

  auto stat = StatFile(meta->raw_path);
  if (!stat.ok()) return stat.status();
  PosmapSidecarHeader header;
  header.table = table_;
  header.raw_size = stat->size;
  header.raw_mtime_nanos = stat->mtime_nanos;
  header.dialect = dialect;
  std::vector<PosmapSidecarEntry> entries;
  entries.reserve(snapshot.size());
  for (auto& [chunk_index, map] : snapshot) {
    entries.push_back(PosmapSidecarEntry{chunk_index, std::move(map)});
  }
  FaultKillPoint("scanraw.posmap.before_save");
  Status saved = AtomicWriteFile(path, EncodePosmapSidecar(header, entries));
  FaultKillPoint("scanraw.posmap.after_save");
  return saved;
}

size_t ScanRaw::PrepopulatePositionalMaps(
    const PosmapDialect& dialect,
    std::vector<std::pair<uint64_t, std::shared_ptr<const PositionalMap>>>
        entries) {
  if (!options_.cache_positional_maps) return 0;
  auto meta = catalog_->GetTable(table_);
  if (!meta.ok()) return 0;
  // Dialect gate: a sidecar written under different delimiter/quote rules
  // (e.g. --quoted-csv toggled between runs) is useless here — refuse it
  // wholesale and let the table re-tokenize.
  if (dialect != TokenizeDialectFor(meta->schema, options_)) return 0;
  size_t inserted = 0;
  for (auto& [chunk_index, map] : entries) {
    if (map == nullptr) continue;
    positional_maps_.Insert(chunk_index, std::move(map), dialect,
                            PosmapOrigin::kDisk);
    ++inserted;
  }
  return inserted;
}

bool ScanRaw::EnqueueWrite(uint64_t chunk_index, BinaryChunkPtr chunk) {
  {
    MutexLock lock(pending_mu_);
    if (pending_writes_.count(chunk_index)) return false;
    auto meta = catalog_->GetTable(table_);
    if (meta.ok() && chunk_index < meta->chunks.size()) {
      const ChunkMetadata& cm = meta->chunks[chunk_index];
      bool all_loaded = true;
      for (size_t c : chunk->ColumnIds()) {
        if (!cm.loaded_columns.count(c)) {
          all_loaded = false;
          break;
        }
      }
      if (all_loaded) {
        // Already in the database (possibly loaded by an earlier query);
        // repair the cache flag so the chunk is not offered again.
        cache_.MarkLoaded(chunk_index);
        return false;
      }
    }
    pending_writes_.insert(chunk_index);
  }
  {
    MutexLock lock(write_mu_);
    ++writes_outstanding_;
  }
  if (!write_queue_.Push(WriteRequest{chunk_index, std::move(chunk)})) {
    // Operator shutting down.
    {
      MutexLock lock(pending_mu_);
      pending_writes_.erase(chunk_index);
    }
    MutexLock lock(write_mu_);
    --writes_outstanding_;
    write_cv_.NotifyAll();
    return false;
  }
  return true;
}

void ScanRaw::MaybeTriggerSpeculativeWrite() {
  if (options_.policy != LoadPolicy::kSpeculativeLoading) return;
  // Back off after a failed background write: the disk is unhappy (full,
  // erroring); keep serving the query from the raw side and retry later.
  const int64_t backoff_until =
      write_backoff_until_nanos_.load(std::memory_order_relaxed);
  if (backoff_until != 0 &&
      RealClock::Instance()->NowNanos() < backoff_until) {
    profile_.Add(ProfileCounter::kWriteBackoffs);
    return;
  }
  {
    // One chunk at a time (§4): do not stack writes while one is queued or
    // in flight.
    MutexLock lock(write_mu_);
    if (writes_outstanding_ > 0) return;
  }
  auto victim = cache_.OldestUnloaded();
  if (!victim.has_value()) return;
  const uint64_t victim_index = victim->first;
  if (EnqueueWrite(victim_index, std::move(victim->second))) {
    profile_.Add(ProfileCounter::kSpeculativeTriggers);
    obs::FlightRecord(obs::FlightEvent::kSpeculativeTrigger, victim_index, 0);
  }
}

void ScanRaw::SafeguardFlush() {
  obs::FlightRecord(obs::FlightEvent::kSafeguardFlush);
  for (auto& [index, chunk] : cache_.UnloadedChunks()) {
    EnqueueWrite(index, std::move(chunk));
  }
}

void ScanRaw::WriteLoop() {
  while (auto req = write_queue_.Pop()) {
    // Active only while a request is being stored: the idle Pop wait is the
    // normal state for WRITE and must not look like a stall.
    obs::StageHeartbeats::Scope heartbeat(heartbeats_, obs::Stage::kWrite);
    Status status;
    // Optional pre-load clustering (§3.3): sort the chunk's rows on the
    // configured column before it is stored.
    BinaryChunkPtr to_store = req->chunk;
    if (options_.sort_column_before_load.has_value() &&
        to_store->HasColumn(*options_.sort_column_before_load)) {
      auto sorted =
          SortChunkByColumn(*to_store, *options_.sort_column_before_load);
      if (sorted.ok()) {
        to_store = std::make_shared<const BinaryChunk>(std::move(*sorted));
      }
    }
    // History-driven speculative loading: store only the advisor's
    // hot-column subset, in rank order, instead of every converted column.
    // Columns already in the database are dropped either way, so repeated
    // offers of the same chunk never duplicate segments. Results stay
    // byte-identical: skipped columns are re-extracted from the raw side.
    std::vector<size_t> store_columns = to_store->ColumnIds();
    bool skip_write = false;
    if (options_.advisor != nullptr &&
        options_.policy == LoadPolicy::kSpeculativeLoading) {
      store_columns = options_.advisor->FilterColumns(table_, store_columns);
      auto meta = catalog_->GetTable(table_);
      if (meta.ok() && req->chunk_index < meta->chunks.size()) {
        const std::set<size_t>& loaded =
            meta->chunks[req->chunk_index].loaded_columns;
        store_columns.erase(
            std::remove_if(store_columns.begin(), store_columns.end(),
                           [&loaded](size_t c) { return loaded.count(c) != 0; }),
            store_columns.end());
      }
      // Every hot column already resident: nothing worth the write budget.
      skip_write = store_columns.empty();
    }
    if (!skip_write) {
      ScopedDiskAccess disk(arbiter_, DiskUser::kWriter);
      // The WRITE thread outlives queries: its spans go to whichever query
      // is active when the write finishes (RecordSpan below).
      obs::StageScope stage({.spans = this,
                             .totals = &profile_.stages,
                             .heartbeats = heartbeats_,
                             .flight = true},
                            obs::Stage::kWrite, obs::ChunkSource::kRaw,
                            req->chunk_index);
      auto segment = storage_->WriteSegment(*to_store, store_columns);
      if (!segment.ok()) {
        status = segment.status();
      } else {
        // Write-ordering invariant: the segment's bytes reach stable
        // storage before any catalog record points at them, so a crash
        // can leave orphan bytes in the storage tail (harmless) but never
        // a catalog entry referencing unsynced data.
        status = storage_->Sync();
        FaultKillPoint("scanraw.write.before_record");
        if (status.ok()) {
          status = catalog_->RecordSegment(table_, req->chunk_index, *segment,
                                           ComputeChunkStats(*to_store));
          FaultKillPoint("scanraw.write.after_record");
        }
        if (status.ok()) {
          // Useful-write attribution: the segment's bytes, scaled by how
          // many of its columns the active query required (columns in one
          // chunk are near-equal width, so proportional is a fair split).
          const size_t overlap = CountRequiredOverlap(store_columns);
          if (!store_columns.empty()) {
            profile_.Add(ProfileCounter::kUsefulBytesWritten,
                         segment->page.size * overlap / store_columns.size());
          }
          stage.set_detail(segment->page.size);
        }
      }
    }
    if (status.ok()) {
      cache_.MarkLoaded(req->chunk_index);
      if (!skip_write) {
        profile_.Add(ProfileCounter::kChunksWritten);
        NoteChunkLoaded();
      }
    } else if (options_.policy == LoadPolicy::kFullLoad ||
               options_.policy == LoadPolicy::kInvisibleLoading) {
      // Loading is part of the query under these policies; surface it.
      MutexLock lock(write_mu_);
      if (write_status_.ok()) write_status_ = status;
    } else {
      // Graceful degradation (speculative / buffered / safeguard writes):
      // the chunk simply stays unloaded — the query keeps processing it
      // from the raw side — and new speculative triggers back off so a
      // sick disk is not hammered. Retried naturally once the backoff
      // expires.
      profile_.Add(ProfileCounter::kWriteFailures);
      LOG_WARN(
          "scanraw: background write of %s chunk %llu failed, "
          "falling back to raw-side processing: %s",
          table_.c_str(), static_cast<unsigned long long>(req->chunk_index),
          std::string(status.message()).c_str());
      if (options_.write_failure_backoff_ms > 0) {
        write_backoff_until_nanos_.store(
            RealClock::Instance()->NowNanos() +
                static_cast<int64_t>(options_.write_failure_backoff_ms) *
                    1'000'000,
            std::memory_order_relaxed);
      }
    }
    {
      MutexLock lock(pending_mu_);
      pending_writes_.erase(req->chunk_index);
    }
    MutexLock lock(write_mu_);
    --writes_outstanding_;
    write_cv_.NotifyAll();
  }
}

void ScanRaw::RegisterObservers(obs::SpanProfiler* profiler,
                                obs::ProgressTracker* progress,
                                const std::vector<size_t>& required_columns) {
  MutexLock lock(active_mu_);
  active_profiler_ = profiler;
  active_progress_ = progress;
  active_required_ =
      std::set<size_t>(required_columns.begin(), required_columns.end());
}

void ScanRaw::UnregisterObservers(obs::SpanProfiler* profiler,
                                  obs::ProgressTracker* progress) {
  MutexLock lock(active_mu_);
  // Identity-checked: a newer query may have registered already.
  if (active_profiler_ == profiler) active_profiler_ = nullptr;
  if (active_progress_ == progress) {
    active_progress_ = nullptr;
    active_required_.clear();
  }
}

size_t ScanRaw::CountRequiredOverlap(
    const std::vector<size_t>& columns) const {
  MutexLock lock(active_mu_);
  size_t overlap = 0;
  for (size_t c : columns) {
    if (active_required_.count(c) != 0) ++overlap;
  }
  return overlap;
}

void ScanRaw::RecordSpan(obs::Stage stage, uint32_t tid, int64_t start_nanos,
                         int64_t dur_nanos) {
  MutexLock lock(active_mu_);
  if (active_profiler_ != nullptr) {
    active_profiler_->RecordSpan(stage, tid, start_nanos, dur_nanos);
  }
}

void ScanRaw::NoteChunkLoaded() {
  MutexLock lock(active_mu_);
  if (active_progress_ != nullptr) active_progress_->CountLoaded();
}

void ScanRaw::MaybeUpdateSketches(const BinaryChunk& chunk) {
  {
    MutexLock lock(sketched_mu_);
    if (!sketched_chunks_.insert(chunk.chunk_index()).second) return;
  }
  sketches_.AddChunk(chunk);
}

void ScanRaw::WaitForWrites() {
  MutexLock lock(write_mu_);
  while (writes_outstanding_ != 0) write_cv_.Wait(lock);
}

Status ScanRaw::write_status() const {
  MutexLock lock(write_mu_);
  return write_status_;
}

std::string ScanRaw::StatuszSection() const {
  std::string out;
  out += StringPrintf("  table: %s\n", table_.c_str());
  out += StringPrintf("  policy: %s\n",
                      std::string(LoadPolicyName(options_.policy)).c_str());
  out += StringPrintf("  loaded_fraction: %.3f\n", LoadedFraction());
  out += StringPrintf("  cache: %zu/%zu chunks\n", cache_.size(),
                      cache_.capacity());
  out += StringPrintf("  writes_outstanding: %zu\n", [this] {
    MutexLock lock(write_mu_);
    return writes_outstanding_;
  }());
  out += StringPrintf(
      "  tokenize: ranges=%llu misspeculations=%llu repair_bytes=%llu\n",
      static_cast<unsigned long long>(
          profile_.Get(ProfileCounter::kTokenizeRanges)),
      static_cast<unsigned long long>(
          profile_.Get(ProfileCounter::kTokenizeMisspeculations)),
      static_cast<unsigned long long>(
          profile_.Get(ProfileCounter::kTokenizeRepairBytes)));
  if (options_.cache_positional_maps) {
    out += StringPrintf(
        "  posmap cache: %zu maps, %zu bytes, disk_chunks=%llu\n",
        positional_maps_.size(), positional_maps_.MemoryBytes(),
        static_cast<unsigned long long>(
            profile_.Get(ProfileCounter::kPosmapDiskChunks)));
  }
  if (heartbeats_ != nullptr) {
    for (const obs::Stage stage : obs::kWatchedStages) {
      out += StringPrintf(
          "  stage %s: active=%lld beats=%llu\n",
          std::string(obs::StageName(stage)).c_str(),
          static_cast<long long>(heartbeats_->active(stage)),
          static_cast<unsigned long long>(heartbeats_->beats(stage)));
    }
  }
  MutexLock lock(active_mu_);
  if (active_profiler_ == nullptr) {
    out += "  query: idle\n";
    return out;
  }
  out += "  query: running\n";
  const obs::SpanProfiler::Report report = active_profiler_->Aggregate();
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    const auto stage = static_cast<obs::Stage>(i);
    const obs::SpanProfiler::StageStats& stats = report.stages[i];
    if (stats.spans == 0) continue;
    out += StringPrintf(
        "  span %s: spans=%llu busy=%.3fs threads=%zu\n",
        std::string(obs::StageName(stage)).c_str(),
        static_cast<unsigned long long>(stats.spans),
        static_cast<double>(stats.busy_nanos) * 1e-9, stats.threads);
  }
  out += StringPrintf(
      "  critical_stage: %s (%.0f%% of wall)\n",
      std::string(obs::StageName(report.critical_stage)).c_str(),
      report.critical_fraction * 100.0);
  return out;
}

double ScanRaw::LoadedFraction() const {
  auto meta = catalog_->GetTable(table_);
  if (!meta.ok()) return 0.0;
  return meta->LoadedFraction();
}

bool ScanRaw::FullyLoaded() const {
  auto meta = catalog_->GetTable(table_);
  if (!meta.ok()) return false;
  return meta->FullyLoaded();
}

}  // namespace scanraw
