// Configuration for the ScanRaw operator, including the WRITE scheduling
// policy that selects between the paper's operating regimes (§3, §4).
#ifndef SCANRAW_SCANRAW_OPTIONS_H_
#define SCANRAW_SCANRAW_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace scanraw {

namespace obs {
class Telemetry;
struct QueryProgress;
class QueryLog;
class LoadAdvisor;
}

// WRITE scheduling policy (§3.1: "The scheduling policy for WRITE dictates
// the SCANRAW behavior").
enum class LoadPolicy : int {
  // Never write: ScanRaw is a parallel external-table operator.
  kExternalTables = 0,
  // Write every converted chunk: ScanRaw degenerates into a parallel ETL
  // operator ("load & process" in the evaluation).
  kFullLoad = 1,
  // Write only when the disk is idle (READ blocked on a full text buffer),
  // plus the end-of-scan safeguard flush. The paper's contribution (§4).
  kSpeculativeLoading = 2,
  // Write a fixed number of chunks per query regardless of resource
  // utilization — the invisible-loading baseline [4].
  kInvisibleLoading = 3,
  // Write chunks only when they are evicted from a full binary cache — the
  // buffered-loading baseline (NoDB + flush-on-full, [10]).
  kBufferedLoading = 4,
};

std::string_view LoadPolicyName(LoadPolicy policy);

// Physical encoding of the raw file. Each format supplies its own TOKENIZE
// worker; PARSE and everything downstream are shared (§5: "adding support
// for other file formats requires only the implementation of specific
// TOKENIZE and PARSE workers without changing the basic architecture").
enum class RawFormat : int {
  // Delimiter-separated text (CSV, TSV, SAM, ...), delimiter from the
  // schema.
  kDelimitedText = 0,
  // One flat JSON object per line, one member per schema column.
  kJsonLines = 1,
};

struct ScanRawOptions {
  LoadPolicy policy = LoadPolicy::kSpeculativeLoading;

  RawFormat raw_format = RawFormat::kDelimitedText;

  // Worker threads in the pool shared by TOKENIZE and PARSE tasks. 0 means
  // fully sequential conversion (Figure 4's leftmost configuration).
  size_t num_workers = 8;

  // Speculative intra-file parallel TOKENIZE (format/parallel_chunker):
  // split each chunk into byte ranges, speculate record boundary and quote
  // parity at each range start, tokenize the ranges concurrently on the
  // worker pool, and repair only misspeculated ranges. Off = the frozen
  // sequential SIMD path, kept as the reference tier for equivalence tests
  // and benches. Ignored for JSON (its tokenizer is per-line already).
  bool parallel_tokenize = true;

  // RFC-4180 quoted-field dialect for delimited text: fields may be quoted,
  // with embedded delimiters, doubled-quote escapes, and quoted newlines.
  // Record discovery and TOKENIZE share one quote-parity FSM; PARSE
  // collapses doubled quotes in string fields.
  bool quoted_fields = false;

  // Pipeline buffer capacities, in chunks.
  size_t text_buffer_capacity = 8;
  size_t position_buffer_capacity = 8;
  size_t output_buffer_capacity = 8;

  // Binary chunk cache capacity, in chunks (0 disables caching).
  size_t cache_capacity_chunks = 32;

  // Lines per chunk for the first (layout-discovery) scan.
  uint64_t chunk_rows = 1 << 16;

  // kInvisibleLoading: chunks written per query.
  size_t invisible_chunks_per_query = 2;

  // End-of-scan safeguard flush (§4). On by default for speculative
  // loading; exposed for the ablation bench.
  bool safeguard_enabled = true;

  // Graceful degradation: after a background WRITE fails (disk full, I/O
  // error), suppress new speculative triggers for this long. The failed
  // chunk stays unloaded — queries keep running from the raw side — and
  // loading is retried once the backoff expires. Synchronous-loading
  // policies (kFullLoad, kInvisibleLoading) still surface the error.
  int write_failure_backoff_ms = 100;

  // Cache positional maps across queries so re-scans of raw chunks skip or
  // shorten TOKENIZE (§2's positional map; off by default per the §3.1
  // argument that binary-chunk caching dominates it).
  bool cache_positional_maps = false;
  size_t positional_map_cache_chunks = 64;
  // Byte bound for the positional-map cache, enforced alongside the chunk
  // count; 0 disables the byte bound. A wide-schema table can hit this long
  // before the chunk bound.
  size_t positional_map_cache_bytes = 64u << 20;

  // Persist the positional-map cache to a sidecar file next to the catalog
  // (`<catalog>.posmap.<table>`) so a restarted process skips TOKENIZE for
  // chunks it mapped before. Sidecars are written through AtomicWriteFile
  // after cold scans and on catalog saves, and validated (exact raw-file
  // stat + tokenize dialect) before reuse. Implies nothing unless
  // cache_positional_maps is also on.
  bool persist_positional_maps = false;
  // Where this operator saves its sidecar after cold scans. Normally set by
  // ScanRawManager from the catalog path; explicit for tests. Empty
  // disables the after-cold-scan save hook (manager-driven saves on
  // SaveCatalog still happen).
  std::string posmap_sidecar_path;

  // Push-down selection (§2): evaluate the query's range predicate during
  // PARSE and drop failing rows before they reach the engine. Only honored
  // in external-tables mode: filtered chunks are incomplete, so they are
  // never cached or loaded (§2 explains why the bookkeeping otherwise
  // "is too high to consider push-down selection a viable optimization").
  bool pushdown_selection = false;

  // WRITE sorts each chunk's rows on this column before loading it (§3.3
  // "WRITE can sort data in each chunk prior to loading"), clustering
  // stored pages for future range scans. Disabled when unset.
  std::optional<size_t> sort_column_before_load;

  // Delay admitting a new query until the previous query's background
  // writes (speculative / safeguard) have drained — the alternative
  // admission rule §4 describes for when flushing interferes with the next
  // query's reads.
  bool delay_admission_for_writes = false;

  // Maintain distinct-count and sample sketches per column during
  // conversion (§3.3 "more advanced statistics such as the number of
  // distinct elements ... or even samples").
  bool collect_sketches = false;

  // Telemetry sink: registry-backed stage metrics and resource-advice
  // sampling record here. The ScanRawManager fills this in with its own
  // sink when left null; set explicitly to share a sink across managers or
  // to a standalone obs::Telemetry in tests.
  obs::Telemetry* telemetry = nullptr;

  // Period of the §3.3 resource-advice sampler thread attached to each
  // query (0 disables the thread). Requires `telemetry`. The sampler always
  // records one sample at query start and one at query end, so short
  // queries still leave a series.
  int resource_sample_interval_ms = 0;

  // Cadence of the telemetry time-series rings feeding the /metrics rate
  // gauges (rows/s, bytes/s, cache hit rate). The rings are sampled on the
  // ticks of the resource sampler, the manager's watchdog
  // (Config::watchdog_ms) and stats scrapes, at most once per interval —
  // there is no dedicated sampler thread. 0 leaves the telemetry sink's
  // default (1 s); negative disables sampling. Requires `telemetry`.
  int timeseries_interval_ms = 0;

  // Live progress: when set, each query runs a reporter thread that invokes
  // this callback every `progress_interval_ms` with bytes processed vs.
  // total, chunks delivered/loaded, rolling throughput, and an ETA. Also
  // fired once at query start and once at query end.
  std::function<void(const obs::QueryProgress&)> progress_callback;
  int progress_interval_ms = 200;

  // Persistent query event log: when set, ExecuteQuery appends one event
  // per query (spec, stage timings, provenance, speculative payoff). The
  // log outlives the operator; not owned.
  obs::QueryLog* query_log = nullptr;

  // History-driven speculative loading: when set, the WRITE stage under
  // kSpeculativeLoading stores only the advisor's hot-column subset of
  // each chunk, in rank order, instead of every converted column. Query
  // results are byte-identical either way — columns the advisor skips are
  // simply re-extracted from the raw side until a later query loads them.
  // Shared so the advisor (and its history) can outlive operator retirement.
  std::shared_ptr<const obs::LoadAdvisor> advisor;
};

}  // namespace scanraw

#endif  // SCANRAW_SCANRAW_OPTIONS_H_
