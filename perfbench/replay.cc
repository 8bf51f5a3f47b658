#include "replay.h"

#include <algorithm>
#include <memory>

#include "columnar/chunk_serde.h"
#include "db/recovery.h"
#include "db/storage_manager.h"
#include "exec/query.h"
#include "format/parallel_chunker.h"
#include "format/parser.h"
#include "format/posmap_serde.h"
#include "format/tokenizer.h"
#include "io/disk_arbiter.h"
#include "io/file.h"
#include "io/rate_limiter.h"
#include "scanraw/raw_reader.h"

namespace perfbench {
namespace {

using scanraw::Result;
using scanraw::Status;

struct Cost {
  double wall_ns = 0;
  double cpu_ns = 0;
};

// Runs `f` inside a span and reads its wall and calling-thread CPU back.
template <typename F>
auto Call(SpanStore* spans, const char* name, int session, Cost* cost, F&& f) {
  const int id = spans->Begin(name, session);
  auto result = f();
  spans->End(id);
  const Span& s = spans->span(id);
  *cost = {static_cast<double>(s.end_ns - s.start_ns),
           static_cast<double>(s.cpu_ns)};
  return result;
}

scanraw::TokenizeOptions TokenizeFor(const Workload& w,
                                     const scanraw::QuerySpec& spec) {
  scanraw::TokenizeOptions t;
  t.delimiter = w.schema.delimiter();
  t.schema_fields = w.schema.num_columns();
  // Selective tokenizing up to the last needed field, as the operator does.
  for (size_t c : spec.RequiredColumns()) {
    t.max_fields = std::max(t.max_fields, c + 1);
  }
  t.quoted = w.quoted;
  return t;
}

Status CheckReplayAnswer(const OracleQuery& oq, scanraw::QueryExecutor& ex) {
  const scanraw::QueryResult r = ex.Finish();
  if (r.rows_matched == oq.expected_rows && r.total_sum == oq.expected_sum) {
    return Status::OK();
  }
  return Status::Corruption("replayed engine disagrees with the oracle on '" +
                            oq.label + "'");
}

// Seconds reading the file's bytes once waits on a RateLimiter at the
// paper's disk rate (raw 1 MiB reads, so the device, not conversion, sets
// the pace).
Result<double> ThrottledReadWait(const Workload& w, SpanStore* spans,
                                 int session) {
  scanraw::RateLimiter limiter(kPaperDiskBytesPerSecond);
  auto file = scanraw::RandomAccessFile::Open(w.csv_path, &limiter);
  if (!file.ok()) return file.status();
  ScopedSpan span(spans, "io.throttled_read", session);
  std::string block(1 << 20, '\0');
  for (uint64_t offset = 0; offset < (*file)->size();) {
    auto n = (*file)->ReadAt(offset, block.size(), block.data());
    if (!n.ok()) return n.status();
    if (*n == 0) break;
    offset += *n;
  }
  return limiter.total_wait_nanos() * 1e-9;
}

}  // namespace

Result<double> ReplayPass(const Workload& w, const std::string& dir,
                          scanraw::ThreadPool* pool, SpanStore* spans,
                          int session, Samples* out) {
  ScopedSpan root(spans, "replay", session);
  const OracleQuery& full = w.queries[w.full_query];
  const OracleQuery& narrow = w.queries[w.narrow_query];
  const std::vector<size_t> full_columns = full.spec.RequiredColumns();
  const scanraw::TokenizeOptions tok_full = TokenizeFor(w, full.spec);
  const scanraw::TokenizeOptions tok_narrow = TokenizeFor(w, narrow.spec);
  scanraw::ParseOptions parse_full;
  parse_full.projected_columns = full_columns;
  parse_full.unescape_quotes = w.quoted;
  const scanraw::RecordDialect quoted_dialect{true, '"'};

  auto chunker = scanraw::SequentialChunker::Open(
      w.csv_path, w.options.chunk_rows, nullptr, nullptr, nullptr,
      scanraw::RecordDialect{w.quoted, '"'}, w.quoted ? pool : nullptr);
  if (!chunker.ok()) return chunker.status();
  auto file = scanraw::RandomAccessFile::Open(w.csv_path);
  if (!file.ok()) return file.status();
  auto storage = scanraw::StorageManager::Create(dir + "/replay.db");
  if (!storage.ok()) return storage.status();

  scanraw::TableMetadata table;
  table.name = "t";
  table.raw_path = w.csv_path;
  table.schema = w.schema;
  table.target_chunk_rows = w.options.chunk_rows;
  table.layout_known = true;
  scanraw::DiskArbiter arbiter;
  std::vector<scanraw::PosmapSidecarEntry> maps;
  scanraw::SpeculationStats recscan;
  scanraw::QueryExecutor exec_full(full.spec);
  scanraw::QueryExecutor exec_narrow(narrow.spec);
  uint64_t raw_bytes = 0, stored_bytes = 0;
  double storage_write_ns = 0, storage_read_ns = 0, coverage_cpu_ns = 0;
  Cost cost;

  while (true) {
    auto next = Call(spans, "raw_reader.next", session, &cost,
                     [&] { return (*chunker)->Next(); });
    if (!next.ok()) return next.status();
    if (!next->has_value()) break;
    const scanraw::TextChunk& text = **next;
    const double bytes = static_cast<double>(text.data.size());
    const double rows = static_cast<double>(text.num_rows());
    raw_bytes += text.data.size();
    coverage_cpu_ns += cost.cpu_ns;
    (*out)["raw_reader.read_ns_per_byte"].push_back(cost.wall_ns / bytes);

    scanraw::ChunkMetadata meta;
    meta.chunk_index = text.chunk_index;
    meta.raw_offset = text.file_offset;
    meta.raw_size = text.data.size();
    meta.num_rows = text.num_rows();
    table.chunks.push_back(meta);

    auto reread = Call(spans, "raw_reader.read_chunk_at", session, &cost, [&] {
      return scanraw::ReadChunkAt(**file, meta, nullptr, quoted_dialect, pool,
                                  &recscan);
    });
    if (!reread.ok()) return reread.status();
    (*out)["raw_reader.recscan_ns_per_byte"].push_back(cost.wall_ns / bytes);

    auto map = Call(spans, "tokenize.tokenize_chunk", session, &cost,
                    [&] { return scanraw::TokenizeChunk(text, tok_full); });
    if (!map.ok()) return map.status();
    coverage_cpu_ns += cost.cpu_ns;
    (*out)["tokenize.cpu_ns_per_byte"].push_back(cost.cpu_ns / bytes);

    auto narrow_map =
        Call(spans, "tokenize.tokenize_chunk_narrow", session, &cost,
             [&] { return scanraw::TokenizeChunk(text, tok_narrow); });
    if (!narrow_map.ok()) return narrow_map.status();
    (*out)["tokenize.narrow_cpu_ns_per_byte"].push_back(cost.cpu_ns / bytes);

    scanraw::ParallelTokenizeOptions one_thread;
    scanraw::ParallelTokenizeOptions fanned;
    fanned.pool = pool;
    Cost seq_cost;
    auto par1 = Call(spans, "tokenize.parallel_tokenize_1", session, &seq_cost,
                     [&] {
                       return scanraw::ParallelTokenizeChunk(
                           text, tok_full, one_thread, nullptr);
                     });
    auto parn = Call(spans, "tokenize.parallel_tokenize_n", session, &cost, [&] {
      return scanraw::ParallelTokenizeChunk(text, tok_full, fanned, nullptr);
    });
    if (!par1.ok()) return par1.status();
    if (!parn.ok()) return parn.status();
    (*out)["tokenize.par_wall_ns_per_byte"].push_back(cost.wall_ns / bytes);
    (*out)["tokenize.par_speedup"].push_back(seq_cost.wall_ns / cost.wall_ns);

    auto parsed = Call(spans, "parse.parse_chunk", session, &cost, [&] {
      return scanraw::ParseChunk(text, *map, w.schema, parse_full);
    });
    if (!parsed.ok()) return parsed.status();
    coverage_cpu_ns += cost.cpu_ns;
    (*out)["parse.cpu_ns_per_value"].push_back(
        cost.cpu_ns / (rows * static_cast<double>(full_columns.size())));
    (*out)["parse.cpu_ns_per_byte"].push_back(cost.cpu_ns / bytes);

    Status consumed = Call(spans, "exec.consume_full", session, &cost,
                           [&] { return exec_full.Consume(*parsed); });
    if (!consumed.ok()) return consumed;
    coverage_cpu_ns += cost.cpu_ns;
    (*out)["exec.consume_ns_per_row_full"].push_back(cost.cpu_ns / rows);
    consumed = Call(spans, "exec.consume_narrow", session, &cost,
                    [&] { return exec_narrow.Consume(*parsed); });
    if (!consumed.ok()) return consumed;
    (*out)["exec.consume_ns_per_row_narrow"].push_back(cost.cpu_ns / rows);

    std::string blob;
    Status serialized = Call(spans, "columnar.serialize_chunk", session, &cost,
                             [&] { return scanraw::SerializeChunk(*parsed, &blob); });
    if (!serialized.ok()) return serialized;
    const double blob_bytes = static_cast<double>(blob.size());
    (*out)["serde.serialize_ns_per_byte"].push_back(cost.wall_ns / blob_bytes);
    auto decoded = Call(spans, "columnar.deserialize_chunk", session, &cost,
                        [&] { return scanraw::DeserializeChunk(blob); });
    if (!decoded.ok()) return decoded.status();
    (*out)["serde.deserialize_ns_per_byte"].push_back(cost.wall_ns /
                                                      blob_bytes);

    auto segment = Call(spans, "db.write_segment", session, &cost, [&] {
      scanraw::ScopedDiskAccess disk(&arbiter, scanraw::DiskUser::kWriter);
      return (*storage)->WriteSegment(*parsed, full_columns);
    });
    if (!segment.ok()) return segment.status();
    storage_write_ns += cost.wall_ns;
    Status synced = Call(spans, "db.sync", session, &cost,
                         [&] { return (*storage)->Sync(); });
    if (!synced.ok()) return synced;
    storage_write_ns += cost.wall_ns;
    stored_bytes += segment->page.size;
    meta.segments.push_back(*segment);
    meta.loaded_columns.insert(full_columns.begin(), full_columns.end());
    auto read_back = Call(spans, "db.read_chunk_columns", session, &cost, [&] {
      scanraw::ScopedDiskAccess disk(&arbiter, scanraw::DiskUser::kReader);
      return (*storage)->ReadChunkColumns(meta, full_columns);
    });
    if (!read_back.ok()) return read_back.status();
    storage_read_ns += cost.wall_ns;

    maps.push_back({text.chunk_index, std::make_shared<const scanraw::PositionalMap>(
                                          std::move(*map))});
  }
  if (raw_bytes == 0) return Status::Corruption("replay read an empty file");
  if (Status s = CheckReplayAnswer(full, exec_full); !s.ok()) return s;
  if (Status s = CheckReplayAnswer(narrow, exec_narrow); !s.ok()) return s;

  (*out)["tokenize.misspeculation_ratio"].push_back(
      recscan.ranges == 0 ? 0.0
                          : static_cast<double>(recscan.misspeculations) /
                                static_cast<double>(recscan.ranges));
  (*out)["tokenize.repair_byte_ratio"].push_back(
      static_cast<double>(recscan.repair_bytes) / static_cast<double>(raw_bytes));
  // The io layer where the sessions do not use it: a workload that never
  // writes gets the replay's uncontended arbiter wait around its writes,
  // and one without an emulated disk the wait of reading its file's bytes
  // through a RateLimiter at the paper's rate.
  if (w.options.policy == scanraw::LoadPolicy::kExternalTables) {
    (*out)["arbiter.write_wait_s"].push_back(arbiter.writer_wait_nanos() *
                                             1e-9);
  }
  if (w.disk_bandwidth == 0) {
    auto wait = ThrottledReadWait(w, spans, session);
    if (!wait.ok()) return wait.status();
    (*out)["limiter.wait_s"].push_back(*wait);
  }
  (*out)["storage.write_mb_s"].push_back(stored_bytes / (storage_write_ns * 1e-3));
  (*out)["storage.read_mb_s"].push_back(stored_bytes / (storage_read_ns * 1e-3));

  // Persist the pass's maps as a sidecar, then time its validated decode.
  auto stat = scanraw::StatFile(w.csv_path);
  if (!stat.ok()) return stat.status();
  scanraw::PosmapSidecarHeader header;
  header.table = table.name;
  header.raw_size = stat->size;
  header.raw_mtime_nanos = stat->mtime_nanos;
  header.dialect = scanraw::PosmapDialect{w.schema.delimiter(), w.quoted, '"'};
  const std::string sidecar = dir + "/replay.posmap";
  if (Status s = scanraw::WriteStringToFile(
          sidecar, scanraw::EncodePosmapSidecar(header, maps));
      !s.ok()) {
    return s;
  }
  auto loaded = Call(spans, "db.load_posmap_sidecar", session, &cost,
                     [&] { return scanraw::LoadPosmapSidecar(sidecar, table); });
  if (!loaded.ok()) return loaded.status();
  if (loaded->entries.size() != table.chunks.size()) {
    return Status::Corruption("sidecar decode lost chunks");
  }
  (*out)["posmap.decode_us_per_chunk"].push_back(
      cost.wall_ns * 1e-3 / static_cast<double>(loaded->entries.size()));
  return coverage_cpu_ns * 1e-9;
}

void ReplayPoolRoundTrips(scanraw::ThreadPool* pool, int reps,
                          SpanStore* spans, int session, Samples* out) {
  for (int i = 0; i < reps; ++i) {
    Cost cost;
    Call(spans, "pipeline.pool_roundtrip", session, &cost, [&] {
      for (size_t t = 0; t < pool->num_workers(); ++t) pool->Submit([] {});
      pool->WaitIdle();
      return 0;
    });
    (*out)["pool.roundtrip_us"].push_back(cost.wall_ns * 1e-3);
  }
}

}  // namespace perfbench
