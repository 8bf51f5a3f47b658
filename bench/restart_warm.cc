// CI gate for the persisted positional-map index: a warm restart over a
// previously-mapped table must tokenize ZERO bytes and answer
// byte-identically to the cold scan — and it should be measurably faster,
// since TOKENIZE is the scan's dominant CPU stage.
//
// Method: per iteration, a cold manager scans the CSV (external-tables
// policy, binary cache off, so the scan does real READ+TOKENIZE+PARSE
// work) and saves the catalog, writing the `<catalog>.posmap.<table>`
// sidecar. A second manager then simulates the restart: reuse_existing_db
// + LoadCatalog + AttachOptions, and runs the same query. The gate
// hard-fails if the warm scan tokenizes a single byte, misses the
// sidecar maps on any chunk, or returns a different sum.
//
//   bench/restart_warm [--iters=N]
//
// Emits BENCH_restart_warm.json (cold/warm medians) for bench_compare.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "datagen/csv_generator.h"
#include "io/file.h"
#include "obs/explain.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace {

constexpr uint64_t kRows = 1 << 17;
constexpr size_t kColumns = 8;
constexpr uint64_t kChunkRows = 1 << 13;  // 16 chunks
constexpr int kWarmups = 1;

ScanRawOptions PosmapOptions() {
  ScanRawOptions options;
  options.policy = LoadPolicy::kExternalTables;
  options.cache_capacity_chunks = 0;  // no residency: every query is cold
  options.num_workers = 4;
  options.chunk_rows = kChunkRows;
  options.cache_positional_maps = true;
  options.positional_map_cache_chunks = 32;
  options.persist_positional_maps = true;
  return options;
}

}  // namespace
}  // namespace scanraw

int main(int argc, char** argv) {
  using scanraw::bench::CheckOk;
  using scanraw::bench::Fmt;
  int iters = 7;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      iters = std::atoi(argv[i] + 8);
    } else {
      std::fprintf(stderr, "usage: %s [--iters=N]\n", argv[0]);
      return 2;
    }
  }
  if (iters < 1) iters = 1;

  const std::string csv = scanraw::bench::MustTempPath("restart_warm.csv");
  const std::string db = scanraw::bench::MustTempPath("restart_warm.db");
  const std::string catalog =
      scanraw::bench::MustTempPath("restart_warm.catalog");
  scanraw::CsvSpec spec;
  spec.num_rows = scanraw::kRows;
  spec.num_columns = scanraw::kColumns;
  auto info = scanraw::GenerateCsvFile(csv, spec);
  CheckOk(info.status(), "generate csv");

  scanraw::QuerySpec query;
  for (size_t c = 0; c < scanraw::kColumns; ++c) {
    query.sum_columns.push_back(c);
  }

  scanraw::RealClock clock;
  uint64_t cold_tokenized = 0;
  std::vector<double> cold_seconds, warm_seconds;

  for (int i = 0; i < scanraw::kWarmups + iters; ++i) {
    const bool timed = i >= scanraw::kWarmups;
    CheckOk(scanraw::RemoveFileIfExists(db), "clean db");
    CheckOk(scanraw::RemoveFileIfExists(catalog), "clean catalog");
    CheckOk(scanraw::RemoveFileIfExists(catalog + ".posmap.t"),
            "clean sidecar");

    // Cold: scan from scratch and persist catalog + posmap sidecar.
    {
      scanraw::ScanRawManager::Config config;
      config.db_path = db;
      auto manager = scanraw::ScanRawManager::Create(config);
      CheckOk(manager.status(), "create cold manager");
      CheckOk((*manager)->RegisterRawFile(
                  "t", csv, scanraw::CsvSchema(spec), scanraw::PosmapOptions()),
              "register");
      scanraw::obs::ExplainReport cold;
      const int64_t t0 = clock.NowNanos();
      auto result = (*manager)->Query("t", query, &cold);
      const double seconds =
          static_cast<double>(clock.NowNanos() - t0) * 1e-9;
      CheckOk(result.status(), "cold query");
      if (result->total_sum != info->total_sum) {
        std::fprintf(stderr, "FAIL: cold scan sum %llu (want %llu)\n",
                     static_cast<unsigned long long>(result->total_sum),
                     static_cast<unsigned long long>(info->total_sum));
        return 1;
      }
      cold_tokenized = cold.bytes_tokenized;
      CheckOk((*manager)->SaveCatalog(catalog), "save catalog");
      if (timed) cold_seconds.push_back(seconds);
    }

    // Warm: restart from the catalog; the sidecar maps must cover every
    // chunk so the scan tokenizes nothing.
    {
      scanraw::ScanRawManager::Config config;
      config.db_path = db;
      config.reuse_existing_db = true;
      auto manager = scanraw::ScanRawManager::Create(config);
      CheckOk(manager.status(), "create warm manager");
      CheckOk((*manager)->LoadCatalog(catalog), "load catalog");
      if ((*manager)->last_recovery().posmaps_dropped != 0) {
        std::fprintf(stderr, "FAIL: warm restart dropped the sidecar\n");
        return 1;
      }
      CheckOk((*manager)->AttachOptions("t", scanraw::PosmapOptions()),
              "attach");
      scanraw::obs::ExplainReport warm;
      const int64_t t0 = clock.NowNanos();
      auto result = (*manager)->Query("t", query, &warm);
      const double seconds =
          static_cast<double>(clock.NowNanos() - t0) * 1e-9;
      CheckOk(result.status(), "warm query");
      if (result->total_sum != info->total_sum) {
        std::fprintf(stderr, "FAIL: warm scan sum %llu (want %llu)\n",
                     static_cast<unsigned long long>(result->total_sum),
                     static_cast<unsigned long long>(info->total_sum));
        return 1;
      }
      if (warm.bytes_tokenized != 0) {
        std::fprintf(stderr,
                     "FAIL: warm restart tokenized %llu bytes (want 0)\n",
                     static_cast<unsigned long long>(warm.bytes_tokenized));
        return 1;
      }
      const uint64_t chunks = scanraw::kRows / scanraw::kChunkRows;
      if (warm.posmap_disk_hits != chunks) {
        std::fprintf(stderr,
                     "FAIL: warm restart hit %llu/%llu chunks from the "
                     "sidecar\n",
                     static_cast<unsigned long long>(warm.posmap_disk_hits),
                     static_cast<unsigned long long>(chunks));
        return 1;
      }
      if (timed) warm_seconds.push_back(seconds);
    }
  }

  const double cold_med = scanraw::bench::MedianSeconds(cold_seconds);
  const double warm_med = scanraw::bench::MedianSeconds(warm_seconds);
  const auto min_of = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };

  scanraw::bench::TablePrinter table(
      {"scan", "median_ms", "min_ms", "tokenized_bytes"});
  table.AddRow({"cold", Fmt("%.2f", cold_med * 1e3),
                Fmt("%.2f", min_of(cold_seconds) * 1e3),
                std::to_string(static_cast<unsigned long long>(
                    cold_tokenized))});
  table.AddRow({"warm_restart", Fmt("%.2f", warm_med * 1e3),
                Fmt("%.2f", min_of(warm_seconds) * 1e3), "0"});
  std::printf("Warm-restart gate (%llu x %zu rows, median of %d runs)\n",
              static_cast<unsigned long long>(scanraw::kRows),
              scanraw::kColumns, iters);
  table.Print();
  std::printf("warm restart runs %.2fx the cold scan "
              "(0 of %llu bytes tokenized)\n",
              cold_med / warm_med,
              static_cast<unsigned long long>(cold_tokenized));

  scanraw::bench::BenchJsonWriter writer("restart_warm");
  writer.AddExtra("num_rows", std::to_string(scanraw::kRows));
  writer.AddExtra("columns", std::to_string(scanraw::kColumns));
  writer.AddExtra("chunks",
                  std::to_string(scanraw::kRows / scanraw::kChunkRows));
  writer.AddExtra("speedup_vs_cold", Fmt("%.2f", cold_med / warm_med));
  if (!writer.Write(table)) return 1;
  std::printf("OK: warm restart tokenized 0 bytes\n");
  return 0;
}
