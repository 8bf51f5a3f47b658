// Ablations of the design choices DESIGN.md calls out:
//   1. safeguard on/off — without the end-of-scan flush, an I/O-bound
//      workload never converges to database performance;
//   2. biased LRU (evict loaded chunks first) vs plain LRU — the bias keeps
//      unloaded chunks resident so the safeguard can load them;
//   3. invisible-loading quota sweep — how the per-query write budget
//      trades first-query slowdown against convergence speed.
// All measured on the real pipeline.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "datagen/csv_generator.h"
#include "scanraw/chunk_cache.h"
#include "scanraw/scan_raw.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace {

constexpr uint64_t kRows = 1 << 16;
constexpr size_t kColumns = 8;
constexpr uint64_t kChunkRows = 1 << 12;  // 16 chunks
constexpr int kQueries = 5;

struct SequenceOutcome {
  std::vector<double> loaded_fraction;  // after each query (writes drained)
  std::vector<double> query_seconds;
};

SequenceOutcome RunSequence(const std::string& csv, const CsvSpec& spec,
                            const ScanRawOptions& options,
                            const std::string& tag) {
  ScanRawManager::Config config;
  config.db_path = bench::MustTempPath("ablation_" + tag + ".db");
  config.disk_bandwidth = 100ull << 20;
  auto manager = ScanRawManager::Create(config);
  bench::CheckOk(manager.status(), "create manager");
  bench::CheckOk(
      (*manager)->RegisterRawFile("t", csv, CsvSchema(spec), options),
      "register");
  QuerySpec query;
  for (size_t c = 0; c < kColumns; ++c) query.sum_columns.push_back(c);

  SequenceOutcome outcome;
  RealClock clock;
  for (int q = 0; q < kQueries; ++q) {
    const int64_t t0 = clock.NowNanos();
    auto result = (*manager)->Query("t", query);
    outcome.query_seconds.push_back(
        static_cast<double>(clock.NowNanos() - t0) * 1e-9);
    bench::CheckOk(result.status(), "query");
    ScanRaw* op = (*manager)->GetOperator("t");
    if (op != nullptr) op->WaitForWrites();
    outcome.loaded_fraction.push_back(
        (*manager)->catalog()->GetTable("t")->LoadedFraction());
  }
  return outcome;
}

ScanRawOptions BaseOptions() {
  ScanRawOptions options;
  options.policy = LoadPolicy::kSpeculativeLoading;
  options.num_workers = 4;
  options.chunk_rows = kChunkRows;
  options.cache_capacity_chunks = 4;
  return options;
}

}  // namespace
}  // namespace scanraw

int main() {
  using scanraw::bench::Fmt;
  const std::string csv = scanraw::bench::MustTempPath("ablation.csv");
  scanraw::CsvSpec spec;
  spec.num_rows = scanraw::kRows;
  spec.num_columns = scanraw::kColumns;
  auto info = scanraw::GenerateCsvFile(csv, spec);
  scanraw::bench::CheckOk(info.status(), "generate csv");

  std::printf("Ablation studies (real pipeline, %llu x %zu file, 16 chunks, "
              "cache = 4 chunks)\n\n",
              static_cast<unsigned long long>(scanraw::kRows),
              scanraw::kColumns);

  // ---- 1. safeguard on/off -------------------------------------------
  {
    auto on = scanraw::BaseOptions();
    auto off = scanraw::BaseOptions();
    off.safeguard_enabled = false;
    auto with = scanraw::RunSequence(csv, spec, on, "safeguard_on");
    auto without = scanraw::RunSequence(csv, spec, off, "safeguard_off");
    std::printf("1. Safeguard flush (speculative loading)\n");
    scanraw::bench::TablePrinter table(
        {"query", "loaded % (safeguard on)", "loaded % (safeguard off)"});
    for (int q = 0; q < scanraw::kQueries; ++q) {
      table.AddRow({std::to_string(q + 1),
                    Fmt("%.0f", 100 * with.loaded_fraction[q]),
                    Fmt("%.0f", 100 * without.loaded_fraction[q])});
    }
    table.Print();
    std::printf("Without the safeguard, loading only happens when READ "
                "blocks; on an I/O-bound\nhost it can stall entirely.\n\n");
  }

  // ---- 2. biased vs plain LRU ----------------------------------------
  {
    // Driven directly against the cache: unloaded chunks become resident
    // first (converted early in the scan), then already-loaded chunks pass
    // through (database reads), then more conversions arrive. The biased
    // policy sacrifices the loaded chunks and keeps the unloaded ones
    // resident for the safeguard flush; plain LRU evicts the unloaded
    // chunks because they are the coldest.
    std::printf("2. Cache eviction bias (evict already-loaded chunks first)\n");
    scanraw::bench::TablePrinter table(
        {"policy", "unloaded chunks still resident", "evicted before load"});
    for (bool bias : {true, false}) {
      scanraw::ChunkCache cache(8, bias);
      auto dummy = std::make_shared<const scanraw::BinaryChunk>(0);
      size_t lost = 0;
      for (uint64_t i = 0; i < 4; ++i) {        // early conversions
        for (const auto& ev : cache.Insert(i, dummy, /*loaded=*/false)) {
          if (!ev.was_loaded) ++lost;
        }
      }
      for (uint64_t i = 100; i < 108; ++i) {    // database reads pass through
        for (const auto& ev : cache.Insert(i, dummy, /*loaded=*/true)) {
          if (!ev.was_loaded) ++lost;
        }
      }
      for (uint64_t i = 4; i < 8; ++i) {        // late conversions
        for (const auto& ev : cache.Insert(i, dummy, /*loaded=*/false)) {
          if (!ev.was_loaded) ++lost;
        }
      }
      table.AddRow({bias ? "biased LRU" : "plain LRU",
                    std::to_string(cache.UnloadedChunks().size()),
                    std::to_string(lost)});
    }
    table.Print();
    std::printf("The bias keeps unloaded chunks resident through bursts of "
                "loaded traffic, so the\nsafeguard flush can still load "
                "them (\"chunks stored in binary format are more\nlikely "
                "to be replaced\", 3.1).\n\n");
  }

  // ---- 2b. positional map cache on/off -------------------------------
  {
    std::printf("2b. Positional map cache (external tables, re-scan "
                "workload)\n");
    scanraw::bench::TablePrinter table(
        {"map cache", "q1 (s)", "q2 (s)", "q3 (s)", "tokenized chunks"});
    for (bool enabled : {false, true}) {
      auto options = scanraw::BaseOptions();
      options.policy = scanraw::LoadPolicy::kExternalTables;
      options.cache_capacity_chunks = 0;  // force raw re-scans
      options.cache_positional_maps = enabled;
      scanraw::ScanRawManager::Config config;
      config.db_path = scanraw::bench::MustTempPath(
          std::string("ablation_pmc_") + (enabled ? "on" : "off") + ".db");
      config.disk_bandwidth = 100ull << 20;
      auto manager = scanraw::ScanRawManager::Create(config);
      scanraw::bench::CheckOk(manager.status(), "create manager");
      scanraw::bench::CheckOk(
          (*manager)->RegisterRawFile("t", csv, scanraw::CsvSchema(spec),
                                      options),
          "register");
      scanraw::ScanRaw op("t", (*manager)->catalog(), (*manager)->storage(),
                          (*manager)->arbiter(), (*manager)->limiter(),
                          options);
      scanraw::QuerySpec query;
      for (size_t c = 0; c < scanraw::kColumns; ++c) {
        query.sum_columns.push_back(c);
      }
      scanraw::RealClock clock;
      std::vector<std::string> row{enabled ? "on" : "off"};
      for (int q = 0; q < 3; ++q) {
        const int64_t t0 = clock.NowNanos();
        auto result = op.ExecuteQuery(query);
        scanraw::bench::CheckOk(result.status(), "query");
        row.push_back(
            Fmt("%.3f", static_cast<double>(clock.NowNanos() - t0) * 1e-9));
      }
      row.push_back(std::to_string(
          op.profile().stages.chunks(scanraw::obs::Stage::kTokenize)));
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("With the cache on, queries 2+ skip TOKENIZE entirely "
                "(16 chunks tokenized once\ninstead of on every scan).\n\n");
  }

  // ---- 3. invisible-loading quota sweep ------------------------------
  {
    std::printf("3. Invisible loading: chunks-per-query quota sweep\n");
    scanraw::bench::TablePrinter table(
        {"quota", "q1 time (s)", "q5 time (s)", "loaded % after q5"});
    for (size_t quota : {1, 2, 4, 8}) {
      auto options = scanraw::BaseOptions();
      options.policy = scanraw::LoadPolicy::kInvisibleLoading;
      options.invisible_chunks_per_query = quota;
      auto outcome = scanraw::RunSequence(csv, spec, options,
                                          "quota" + std::to_string(quota));
      table.AddRow({std::to_string(quota),
                    Fmt("%.2f", outcome.query_seconds.front()),
                    Fmt("%.2f", outcome.query_seconds.back()),
                    Fmt("%.0f", 100 * outcome.loaded_fraction.back())});
    }
    table.Print();
    std::printf("Larger quotas converge faster but tax every query; "
                "speculative loading gets the\nsame convergence without the "
                "fixed per-query cost.\n");
  }
  return 0;
}
