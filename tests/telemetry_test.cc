// Tests for the telemetry wiring through the SCANRAW pipeline: the §3.3
// resource-advice classification, reconciliation of the PipelineProfile
// counters with catalog state after a multi-query speculative run, and the
// registry / flight recorder / sampler integration through the
// ScanRawManager.

#include <gtest/gtest.h>

#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datagen/csv_generator.h"
#include "obs/explain.h"
#include "obs/flight_recorder.h"
#include "obs/progress.h"
#include "obs/telemetry.h"
#include "scanraw/scan_raw.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace {

std::string TempPath(const std::string& name) {
  std::string test = testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name();
  for (char& c : test) {
    if (c == '/') c = '_';
  }
  return testing::TempDir() + "/telem_" + test + "_" + name;
}

// ----------------------------------------------- advice classification ----

obs::ResourceSample BalancedSnapshot() {
  obs::ResourceSample s;
  s.text_buffer_size = 2;
  s.text_buffer_capacity = 8;
  s.position_buffer_size = 1;
  s.position_buffer_capacity = 8;
  s.output_buffer_size = 3;
  s.output_buffer_capacity = 8;
  s.busy_workers = 2;
  s.num_workers = 4;
  return s;
}

TEST(AdviceTest, BalancedPipeline) {
  EXPECT_EQ(obs::ComputeAdvice(BalancedSnapshot()),
            obs::Advice::kBalanced);
}

TEST(AdviceTest, NeedMoreCpuWhenSaturatedAndTextFull) {
  // "All worker threads are busy and the text chunk buffer is full" (§3.3).
  obs::ResourceSample s = BalancedSnapshot();
  s.busy_workers = s.num_workers;
  s.text_buffer_size = s.text_buffer_capacity;
  EXPECT_EQ(obs::ComputeAdvice(s), obs::Advice::kNeedMoreCpu);
}

TEST(AdviceTest, BusyWorkersAloneAreNotACpuRequest) {
  // Saturated workers with a draining text buffer: conversion keeps up
  // with the disk, no extra CPU needed.
  obs::ResourceSample s = BalancedSnapshot();
  s.busy_workers = s.num_workers;
  s.text_buffer_size = 1;
  EXPECT_EQ(obs::ComputeAdvice(s), obs::Advice::kBalanced);
}

TEST(AdviceTest, IoBoundWhenWorkersStarved) {
  obs::ResourceSample s = BalancedSnapshot();
  s.busy_workers = 0;
  s.text_buffer_size = 0;
  s.position_buffer_size = 0;
  s.output_buffer_size = 0;
  EXPECT_EQ(obs::ComputeAdvice(s), obs::Advice::kIoBound);
}

TEST(AdviceTest, EngineBoundWhenOutputFull) {
  obs::ResourceSample s = BalancedSnapshot();
  s.output_buffer_size = s.output_buffer_capacity;
  EXPECT_EQ(obs::ComputeAdvice(s), obs::Advice::kEngineBound);
}

TEST(AdviceTest, CpuRequestWinsOverEngineBound) {
  // Everything full at once: the CPU request is checked first — it is the
  // state the resource manager can actually act on mid-query.
  obs::ResourceSample s = BalancedSnapshot();
  s.busy_workers = s.num_workers;
  s.text_buffer_size = s.text_buffer_capacity;
  s.output_buffer_size = s.output_buffer_capacity;
  EXPECT_EQ(obs::ComputeAdvice(s), obs::Advice::kNeedMoreCpu);
}

TEST(AdviceTest, SequentialPipelineNeverAsksForCpu) {
  // num_workers == 0 (fully sequential conversion) must not classify as a
  // CPU request even with a full text buffer.
  obs::ResourceSample s = BalancedSnapshot();
  s.num_workers = 0;
  s.busy_workers = 0;
  s.text_buffer_size = s.text_buffer_capacity;
  EXPECT_NE(obs::ComputeAdvice(s), obs::Advice::kNeedMoreCpu);
}

TEST(AdviceTest, NamesAreStable) {
  EXPECT_EQ(obs::AdviceName(obs::Advice::kNeedMoreCpu),
            "need-more-cpu");
  EXPECT_EQ(obs::AdviceName(obs::Advice::kIoBound), "io-bound");
  EXPECT_EQ(obs::AdviceName(obs::Advice::kEngineBound),
            "engine-bound");
  EXPECT_EQ(obs::AdviceName(obs::Advice::kBalanced), "balanced");
}

// ----------------------------------------- pipeline integration fixture ---

struct Fixture {
  std::string csv_path;
  CsvFileInfo info;
  Schema schema;
  std::unique_ptr<ScanRawManager> manager;

  static Fixture Make(const std::string& name, const ScanRawOptions& options,
                      uint64_t rows = 4000, size_t cols = 8) {
    Fixture f;
    f.csv_path = TempPath(name + ".csv");
    CsvSpec spec;
    spec.num_rows = rows;
    spec.num_columns = cols;
    spec.seed = 7;
    auto info = GenerateCsvFile(f.csv_path, spec);
    EXPECT_TRUE(info.ok());
    f.info = *info;
    f.schema = CsvSchema(spec);
    ScanRawManager::Config config;
    config.db_path = TempPath(name + ".db");
    auto manager = ScanRawManager::Create(config);
    EXPECT_TRUE(manager.ok());
    f.manager = std::move(*manager);
    EXPECT_TRUE(
        f.manager->RegisterRawFile("t", f.csv_path, f.schema, options).ok());
    return f;
  }
};

ScanRawOptions BaseOptions() {
  ScanRawOptions options;
  options.policy = LoadPolicy::kSpeculativeLoading;
  options.num_workers = 2;
  options.chunk_rows = 500;  // 8 chunks at 4000 rows
  options.cache_capacity_chunks = 4;
  return options;
}

// Profile counters must reconcile with the catalog after a two-query
// speculative run: every fully loaded chunk was written exactly once, and
// the chunk-source counters account for every chunk of both passes.
TEST(ProfileReconcileTest, CountersMatchCatalogAfterTwoQueries) {
  auto f = Fixture::Make("reconcile", BaseOptions());
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);

  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  auto second = op->ExecuteQuery(q);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->total_sum, f.info.total_sum);
  op->WaitForWrites();
  ASSERT_TRUE(op->write_status().ok());

  const PipelineProfile& profile = op->profile();
  auto meta = f.manager->catalog()->GetTable("t");
  ASSERT_TRUE(meta.ok());

  std::vector<size_t> all_columns;
  for (size_t c = 0; c < 8; ++c) all_columns.push_back(c);
  uint64_t loaded_chunks = 0;
  for (const ChunkMetadata& cm : meta->chunks) {
    if (cm.HasColumnsLoaded(all_columns)) ++loaded_chunks;
  }
  // Exactly-once loading: one write per loaded chunk, no rewrites.
  EXPECT_EQ(profile.Get(ProfileCounter::kChunksWritten), loaded_chunks);

  // Both passes delivered all 8 chunks, each attributed to exactly one
  // source.
  EXPECT_EQ(profile.Get(ProfileCounter::kChunksFromRaw) +
                profile.Get(ProfileCounter::kChunksFromDb) +
                profile.Get(ProfileCounter::kChunksFromCache),
            16u);
  // The first pass had no binary data anywhere: 8 raw conversions.
  EXPECT_GE(profile.Get(ProfileCounter::kChunksFromRaw), 8u);

  // The registry mirrors (bound via the manager's telemetry) agree with the
  // atomics they shadow.
  obs::MetricsRegistry& registry = f.manager->telemetry()->metrics();
  EXPECT_EQ(registry.GetCounter("scanraw.chunks_written")->value(),
            profile.Get(ProfileCounter::kChunksWritten));
  EXPECT_EQ(registry.GetCounter("scanraw.chunks_from_raw")->value(),
            profile.Get(ProfileCounter::kChunksFromRaw));
  EXPECT_EQ(registry.GetCounter("scanraw.chunks_from_cache")->value(),
            profile.Get(ProfileCounter::kChunksFromCache));
  EXPECT_EQ(registry.GetCounter("scanraw.chunks_from_db")->value(),
            profile.Get(ProfileCounter::kChunksFromDb));
}

TEST(ProfileReconcileTest, ResetClearsRegistryMirrors) {
  auto f = Fixture::Make("reset", BaseOptions());
  QuerySpec q;
  q.sum_columns = {0};
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();

  obs::MetricsRegistry& registry = f.manager->telemetry()->metrics();
  EXPECT_GT(registry.GetCounter("scanraw.chunks_from_raw")->value(), 0u);
  EXPECT_GT(registry.GetHistogram("scanraw.stage.read_nanos")->count(), 0u);

  // Quiesced (no QueryRun live, writes drained): Reset may run.
  op->profile().Reset();
  EXPECT_EQ(op->profile().Get(ProfileCounter::kChunksFromRaw), 0u);
  EXPECT_EQ(registry.GetCounter("scanraw.chunks_from_raw")->value(), 0u);
  EXPECT_EQ(registry.GetHistogram("scanraw.stage.read_nanos")->count(), 0u);
  EXPECT_EQ(registry.GetHistogram("scanraw.stage.parse_nanos")->count(), 0u);
}

// Every sink of the READ stage event counts each chunk read exactly once:
// the discovery scan's final EOF probe reads no chunk, so it must vanish
// from the histogram, the per-operator totals, EXPLAIN and the flight
// recorder alike.
TEST(ProfileReconcileTest, DiscoveryScanCountsEachReadOnce) {
  obs::FlightRecorder::Global()->ResetForTest();
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kExternalTables;
  auto f = Fixture::Make("eof_probe", options);
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);
  obs::ExplainReport explain;
  auto result = f.manager->Query("t", q, &explain);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, f.info.total_sum);
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);

  const uint64_t chunks = op->profile().Get(ProfileCounter::kChunksFromRaw);
  EXPECT_EQ(chunks, 8u);
  obs::MetricsRegistry& registry = f.manager->telemetry()->metrics();
  EXPECT_EQ(registry.GetHistogram("scanraw.stage.read_nanos")->count(),
            chunks);
  EXPECT_EQ(op->profile().stages.chunks(obs::Stage::kRead), chunks);
  uint64_t explain_reads = 0;
  for (const obs::ExplainStage& stage : explain.stages) {
    if (stage.name == "READ") explain_reads = stage.spans;
  }
  EXPECT_EQ(explain_reads, chunks);
  uint64_t traced_reads = 0;
  for (const obs::FlightRecorder::Event& e :
       obs::FlightRecorder::Global()->Snapshot()) {
    if (e.event == obs::FlightEvent::kStage && e.stage == obs::Stage::kRead) {
      ++traced_reads;
    }
  }
  EXPECT_EQ(traced_reads, chunks);
}

// ------------------------------------------------ process-wide buffers ---

ScanRawOptions ExternalOptions(uint64_t chunk_rows) {
  ScanRawOptions options;
  options.policy = LoadPolicy::kExternalTables;
  options.num_workers = 2;
  options.chunk_rows = chunk_rows;
  options.cache_capacity_chunks = 0;
  options.cache_positional_maps = false;
  return options;
}

QuerySpec SumOfAll(size_t cols) {
  QuerySpec q;
  for (size_t c = 0; c < cols; ++c) q.sum_columns.push_back(c);
  return q;
}

// A query on a second manager over the same file converts entirely on the
// buffers the first manager's query released: one chunk, so the pipeline
// needs the same buffers at its peak both times.
TEST(BufferPoolReuseTest, SecondManagerFullQueryMissesNothing) {
  const ScanRawOptions options = ExternalOptions(/*chunk_rows=*/8000);
  obs::ExplainReport first;
  std::string csv_path;
  Schema schema;
  uint64_t first_sum = 0;
  uint64_t first_rows = 0;
  {
    auto f = Fixture::Make("pool_reuse", options);
    csv_path = f.csv_path;
    schema = f.schema;
    auto result = f.manager->Query("t", SumOfAll(8), &first);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_sum, f.info.total_sum);
    first_sum = result->total_sum;
    first_rows = result->rows_matched;
    // Counted per query in the registry too.
    obs::MetricsRegistry& registry = f.manager->telemetry()->metrics();
    EXPECT_EQ(registry.GetCounter("scanraw.pool.buffer_misses")->value(),
              first.pool_misses);
    EXPECT_EQ(registry.GetCounter("scanraw.pool.buffer_hits")->value(),
              first.pool_hits);
    EXPECT_EQ(registry.GetCounter("scanraw.minor_faults")->value(),
              first.minor_faults);
  }

  ScanRawManager::Config config;
  config.db_path = TempPath("pool_reuse_second.db");
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->RegisterRawFile("t", csv_path, schema, options).ok());
  obs::ExplainReport second;
  auto result = (*manager)->Query("t", SumOfAll(8), &second);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, first_sum);
  EXPECT_EQ(result->rows_matched, first_rows);
  EXPECT_EQ(second.pool_misses, 0u);
  EXPECT_GT(second.pool_hits, 0u);
  EXPECT_NE(second.ToText().find("  memory: pool-hits=" +
                                 std::to_string(second.pool_hits) +
                                 " pool-misses=0 minor-faults="),
            std::string::npos)
      << second.ToText();
  EXPECT_NE(second.ToJson().find("\"memory\":{\"pool_hits\":"),
            std::string::npos);
}

// Two managers' pipelines run at once on the one pool (the TSan suite runs
// this binary); every answer stays exact.
TEST(BufferPoolReuseTest, ConcurrentManagersShareThePool) {
  const ScanRawOptions options = ExternalOptions(/*chunk_rows=*/500);
  auto a = Fixture::Make("pool_shared_a", options);
  auto b = Fixture::Make("pool_shared_b", options, /*rows=*/3000,
                         /*cols=*/6);
  std::vector<std::thread> clients;
  std::vector<std::string> failures(2);
  const auto run = [](Fixture* f, size_t cols, std::string* failure) {
    for (int i = 0; i < 3; ++i) {
      auto result = f->manager->Query("t", SumOfAll(cols));
      if (!result.ok()) {
        *failure = result.status().ToString();
        return;
      }
      if (result->total_sum != f->info.total_sum) {
        *failure = "wrong sum on pass " + std::to_string(i);
        return;
      }
    }
  };
  clients.emplace_back(run, &a, 8, &failures[0]);
  clients.emplace_back(run, &b, 6, &failures[1]);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures[0], "");
  EXPECT_EQ(failures[1], "");
}

// -------------------------------------------------- manager integration ---

TEST(ManagerTelemetryTest, StageHistogramsAndCacheCountersPopulate) {
  ScanRawOptions options = BaseOptions();
  options.resource_sample_interval_ms = 1;
  auto f = Fixture::Make("stages", options);
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();

  obs::Telemetry* telemetry = f.manager->telemetry();
  obs::MetricsRegistry& registry = telemetry->metrics();

  // Per-stage latency histograms recorded one entry per chunk-stage.
  EXPECT_GE(registry.GetHistogram("scanraw.stage.read_nanos")->count(), 8u);
  EXPECT_GE(registry.GetHistogram("scanraw.stage.tokenize_nanos")->count(),
            8u);
  EXPECT_GE(registry.GetHistogram("scanraw.stage.parse_nanos")->count(), 8u);
  EXPECT_GT(registry.GetHistogram("scanraw.stage.write_nanos")->count(), 0u);

  // Cache counters mirror the ChunkCache (second query hit the cache).
  EXPECT_GT(registry.GetCounter("scanraw.cache.hits")->value(), 0u);
  EXPECT_EQ(registry.GetCounter("scanraw.cache.hits")->value(),
            op->cache().hits());
  EXPECT_EQ(registry.GetCounter("scanraw.cache.misses")->value(),
            op->cache().misses());
  EXPECT_EQ(registry.GetCounter("scanraw.cache.evictions")->value(),
            op->cache().evictions());

  // The pool submitted tokenize + parse tasks.
  EXPECT_GE(registry.GetCounter("scanraw.pool.tasks_submitted")->value(),
            16u);
  // Gauges are deltas and the pipeline has drained.
  EXPECT_EQ(registry.GetGauge("scanraw.pool.busy_workers")->value(), 0);
  EXPECT_EQ(registry.GetGauge("scanraw.pool.queue_depth")->value(), 0);

  // Storage + arbiter wiring recorded the speculative writes.
  EXPECT_GT(registry.GetCounter("storage.segments_written")->value(), 0u);
  EXPECT_GT(registry.GetCounter("storage.bytes_written")->value(), 0u);
  EXPECT_GT(registry.GetHistogram("disk.reader_wait_nanos")->count(), 0u);

  // The sampler left a resource-advice series with start + end samples.
  EXPECT_GE(telemetry->resources().size(), 2u);

  // Advice occurrences were tallied: the counters sum to the sample count
  // this operator probed (every probe lands in exactly one state).
  const uint64_t advice_total =
      registry.GetCounter("scanraw.advice.need_more_cpu")->value() +
      registry.GetCounter("scanraw.advice.io_bound")->value() +
      registry.GetCounter("scanraw.advice.engine_bound")->value() +
      registry.GetCounter("scanraw.advice.balanced")->value();
  EXPECT_EQ(advice_total, telemetry->resources().total_appended());
}

// A scan answered entirely from the chunk cache still beats READ's
// heartbeat once per chunk, so the watchdog never mistakes a long
// cache-only scan for a stalled READ loop.
TEST(ManagerTelemetryTest, CacheOnlyScanBeatsReadOncePerChunk) {
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kExternalTables;
  options.cache_capacity_chunks = 8;
  auto f = Fixture::Make("cache_beats", options);
  QuerySpec q;
  q.sum_columns = {0};
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);

  const obs::StageHeartbeats& heartbeats = f.manager->telemetry()->heartbeats();
  const uint64_t beats_before = heartbeats.beats(obs::Stage::kRead);
  const PipelineProfile::Counts before = op->profile().Snapshot();
  auto result = op->ExecuteQuery(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PipelineProfile::Counts delta = op->profile().Snapshot() - before;
  ASSERT_EQ(delta[ProfileCounter::kChunksFromCache], 8u);
  ASSERT_EQ(delta[ProfileCounter::kChunksFromRaw], 0u);
  // One beat per chunk, plus the READ loop's own enter and leave.
  EXPECT_EQ(heartbeats.beats(obs::Stage::kRead) - beats_before, 8u + 2u);
}

TEST(ManagerTelemetryTest, TracerRecordsFullChunkLifecycle) {
  obs::FlightRecorder::Global()->ResetForTest();
  auto f = Fixture::Make("trace", BaseOptions());
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();

  std::vector<obs::FlightRecorder::Event> stages;
  for (const obs::FlightRecorder::Event& e :
       obs::FlightRecorder::Global()->Snapshot()) {
    if (e.event == obs::FlightEvent::kStage) stages.push_back(e);
  }
  ASSERT_FALSE(stages.empty());

  // Every raw chunk of the discovery scan has a complete
  // READ -> TOKENIZE -> PARSE span set; written chunks add WRITE.
  for (uint64_t chunk = 0; chunk < 8; ++chunk) {
    bool read = false, tokenize = false, parse = false;
    for (const obs::FlightRecorder::Event& e : stages) {
      if (e.a != chunk) continue;
      EXPECT_EQ(e.source, obs::ChunkSource::kRaw);
      read = read || e.stage == obs::Stage::kRead;
      tokenize = tokenize || e.stage == obs::Stage::kTokenize;
      parse = parse || e.stage == obs::Stage::kParse;
    }
    EXPECT_TRUE(read && tokenize && parse) << "chunk " << chunk;
  }
  uint64_t writes = 0;
  for (const obs::FlightRecorder::Event& e : stages) {
    if (e.stage == obs::Stage::kWrite) ++writes;
  }
  EXPECT_EQ(writes, op->profile().Get(ProfileCounter::kChunksWritten));

  const std::string json =
      obs::FlightRecorder::Global()->ToChromeTraceJson("scanraw:t");
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find_last_of(']'), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"PARSE\""), std::string::npos);
  EXPECT_NE(json.find("\"chunk\":7,\"source\":\"raw\""), std::string::npos);
}

TEST(ManagerTelemetryTest, ExplicitSinkOverridesManagerSink) {
  obs::Telemetry own_sink;
  ScanRawOptions options = BaseOptions();
  options.telemetry = &own_sink;
  auto f = Fixture::Make("own_sink", options);
  QuerySpec q;
  q.sum_columns = {0};
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();

  EXPECT_EQ(op->telemetry(), &own_sink);
  EXPECT_GT(own_sink.metrics().GetCounter("scanraw.chunks_from_raw")->value(),
            0u);
  // The manager's sink saw no operator-side chunk traffic.
  EXPECT_EQ(f.manager->telemetry()
                ->metrics()
                .GetCounter("scanraw.chunks_from_raw")
                ->value(),
            0u);
}

// --------------------------------------------------- EXPLAIN ANALYZE e2e ---

TEST(ExplainE2eTest, ColdThenCachedQueriesAttributeProvenance) {
  auto f = Fixture::Make("explain_e2e", BaseOptions());
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);

  obs::ExplainReport cold;
  auto first = f.manager->Query("t", q, &cold);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->total_sum, f.info.total_sum);

  // Cold query: all 8 chunks converted from raw, none cached yet.
  EXPECT_EQ(cold.table, "t");
  EXPECT_EQ(cold.policy, "speculative-loading");
  EXPECT_EQ(cold.chunks_from_raw, 8u);
  EXPECT_EQ(cold.chunks_from_cache, 0u);
  EXPECT_GT(cold.wall_seconds, 0.0);
  EXPECT_FALSE(cold.critical_stage.empty());
  EXPECT_FALSE(cold.stages.empty());
  // Accounting identity: busy + blocked + idle == wall * threads.
  EXPECT_NEAR(cold.busy_seconds_total + cold.blocked_seconds_total +
                  cold.idle_seconds_total,
              cold.wall_seconds *
                  static_cast<double>(cold.threads_accounted),
              0.1 * cold.wall_seconds *
                      static_cast<double>(cold.threads_accounted) +
                  1e-6);

  obs::ExplainReport warm;
  auto second = f.manager->Query("t", q, &warm);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->total_sum, f.info.total_sum);

  // Warm query: the cache (capacity 4) serves part of the file, and the
  // per-query cache-hit delta reflects only this query.
  EXPECT_GT(warm.chunks_from_cache, 0u);
  EXPECT_EQ(warm.cache_hits, warm.chunks_from_cache);
  EXPECT_GT(warm.HitRate(warm.cache_hits, warm.cache_misses), 0.0);
  EXPECT_EQ(warm.chunks_from_cache + warm.chunks_from_db +
                warm.chunks_from_raw,
            8u);
  // The report renders in both formats.
  EXPECT_NE(warm.ToText().find("critical path:"), std::string::npos);
  EXPECT_NE(warm.ToJson().find("\"critical_path\""), std::string::npos);
}

TEST(ExplainE2eTest, SpeculativePayoffIsCreditedToAQuery) {
  auto f = Fixture::Make("explain_payoff", BaseOptions());
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);

  // Run queries until the file is fully loaded; with speculative loading
  // + safeguard each pass makes progress. Some query's report must show
  // written chunks and a loaded-fraction increase.
  bool saw_payoff = false;
  for (int pass = 0; pass < 10 && !f.manager->IsRetired("t"); ++pass) {
    obs::ExplainReport report;
    ASSERT_TRUE(f.manager->Query("t", q, &report).ok());
    ScanRaw* op = f.manager->GetOperator("t");
    if (op != nullptr) op->WaitForWrites();
    if (report.speculation_paid_off) {
      saw_payoff = true;
      EXPECT_GT(report.chunks_written, 0u);
      EXPECT_GT(report.loaded_fraction_after,
                report.loaded_fraction_before);
    }
  }
  EXPECT_TRUE(saw_payoff);
}

TEST(ExplainE2eTest, RetiredTableReportsHeapScanPath) {
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kFullLoad;
  auto f = Fixture::Make("explain_retired", options);
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);

  // Full load: first query loads everything; the table then retires.
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ASSERT_TRUE(f.manager->Query("t", q).ok());  // triggers retirement
  ASSERT_TRUE(f.manager->IsRetired("t"));

  obs::ExplainReport report;
  auto result = f.manager->Query("t", q, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, f.info.total_sum);
  EXPECT_EQ(report.policy, "heap-scan (retired)");
  EXPECT_EQ(report.chunks_from_db, 8u);
  EXPECT_EQ(report.chunks_from_raw, 0u);
  EXPECT_EQ(report.loaded_fraction_before, 1.0);
  bool saw_heap_scan = false;
  for (const obs::ExplainStage& stage : report.stages) {
    if (stage.name == "HEAP_SCAN") saw_heap_scan = true;
  }
  EXPECT_TRUE(saw_heap_scan);
}

TEST(ExplainE2eTest, SkippedChunksSurfaceInReport) {
  // Min/max statistics are computed when a chunk is written (§3.3), so a
  // full load gives every chunk stats; the pruned re-query can then skip
  // all of them.
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kFullLoad;
  auto f = Fixture::Make("explain_skip", options);
  // Sum every column so the full load materializes complete chunks (a
  // narrower query would load only the touched columns and the table
  // would never reach FullyLoaded).
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();

  // A range no generated value can satisfy: every chunk is pruned by its
  // min/max statistics. Querying the operator directly keeps this on the
  // ScanRaw path (the manager would retire the fully loaded table).
  QuerySpec pruned = q;
  RangePredicate range;
  range.column = 0;
  range.lo = std::numeric_limits<int64_t>::max() - 1;
  range.hi = std::numeric_limits<int64_t>::max();
  pruned.predicate.range = range;
  obs::ExplainReport report;
  auto result = op->ExecuteQuery(pruned, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_matched, 0u);
  EXPECT_EQ(report.chunks_skipped, 8u);
  EXPECT_EQ(report.chunks_from_cache + report.chunks_from_db +
                report.chunks_from_raw,
            0u);

  // The same pruning on the retired heap-scan path.
  ASSERT_TRUE(f.manager->Query("t", q).ok());  // triggers retirement
  ASSERT_TRUE(f.manager->IsRetired("t"));
  obs::ExplainReport retired;
  auto heap_result = f.manager->Query("t", pruned, &retired);
  ASSERT_TRUE(heap_result.ok()) << heap_result.status().ToString();
  EXPECT_EQ(heap_result->rows_matched, 0u);
  EXPECT_EQ(retired.chunks_skipped, 8u);
  EXPECT_EQ(retired.chunks_from_db, 0u);
}

TEST(ExplainE2eTest, ProgressCallbackFiresWithTotals) {
  ScanRawOptions options = BaseOptions();
  std::mutex mu;
  std::vector<obs::QueryProgress> reports;
  options.progress_callback = [&](const obs::QueryProgress& p) {
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(p);
  };
  options.progress_interval_ms = 1;
  auto f = Fixture::Make("explain_progress", options);
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);

  // Discovery pass: totals unknown, but first + final reports still fire.
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_GE(reports.size(), 2u);
    EXPECT_EQ(reports.back().chunks_delivered, 8u);
    reports.clear();
  }

  // Second pass: the layout is known, so the final report carries totals
  // and a completed fraction.
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_GE(reports.size(), 2u);
  const obs::QueryProgress& last = reports.back();
  EXPECT_GT(last.bytes_total, 0u);
  EXPECT_EQ(last.chunks_total, 8u);
  EXPECT_EQ(last.chunks_delivered, 8u);
  EXPECT_NEAR(last.fraction, 1.0, 1e-9);
}

}  // namespace
}  // namespace scanraw
