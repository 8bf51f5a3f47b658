// CI gate: attaching a persistent QueryLog to a cold external-table scan
// must cost at most ~2% wall time. The log appends one JSONL line per
// query off the scan's critical path, so any measurable slowdown here
// means serialization or IO leaked into query execution.
//
// Method: two identical managers over the same CSV — one with a QueryLog
// attached, one without — external-tables policy with the cache disabled,
// so every query re-scans the raw file (worst case: the fixed per-query
// logging cost is amortized over the *smallest* useful amount of work).
// Runs are interleaved A/B to cancel drift (page cache, CPU frequency);
// the gate compares medians.
//
//   bench/querylog_overhead [--threshold=PCT] [--iters=N]
//
// Exits nonzero if the logged median exceeds the plain median by more
// than the threshold (default 2%) beyond an absolute noise floor.

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
#include "obs/query_log.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace {

constexpr uint64_t kRows = 1 << 17;
constexpr size_t kColumns = 8;
constexpr uint64_t kChunkRows = 1 << 13;  // 16 chunks
constexpr int kWarmups = 2;

// Fixed timing jitter we refuse to attribute to the query log. CI machines
// routinely wobble a few hundred microseconds per run; the gate is about
// systematic overhead, not scheduler luck.
constexpr double kNoiseFloorSeconds = 0.001;

ScanRawOptions ColdScanOptions() {
  ScanRawOptions options;
  options.policy = LoadPolicy::kExternalTables;
  options.cache_capacity_chunks = 0;  // no residency: every query is cold
  options.num_workers = 4;
  options.chunk_rows = kChunkRows;
  return options;
}

struct Setup {
  std::unique_ptr<ScanRawManager> manager;
  std::unique_ptr<obs::QueryLog> log;
};

Setup MakeManager(const std::string& csv, const CsvSpec& spec,
                  const std::string& tag, bool with_log) {
  Setup setup;
  ScanRawManager::Config config;
  config.db_path = bench::MustTempPath("qlog_overhead_" + tag + ".db");
  auto manager = ScanRawManager::Create(config);
  bench::CheckOk(manager.status(), "create manager");
  setup.manager = std::move(*manager);

  ScanRawOptions options = ColdScanOptions();
  if (with_log) {
    const std::string log_path =
        bench::MustTempPath("qlog_overhead_" + tag + ".jsonl");
    bench::CheckOk(RemoveFileIfExists(log_path), "clean log");
    bench::CheckOk(RemoveFileIfExists(log_path + ".1"), "clean log");
    auto log = obs::QueryLog::Open(log_path);
    bench::CheckOk(log.status(), "open query log");
    setup.log = std::move(*log);
    options.query_log = setup.log.get();
  }
  bench::CheckOk(
      setup.manager->RegisterRawFile("t", csv, CsvSchema(spec), options),
      "register");
  return setup;
}

}  // namespace
}  // namespace scanraw

int main(int argc, char** argv) {
  using scanraw::bench::Fmt;
  double threshold_pct = 2.0;
  int iters = 9;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threshold=", 12) == 0) {
      threshold_pct = std::atof(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      iters = std::atoi(argv[i] + 8);
    } else {
      std::fprintf(stderr, "usage: %s [--threshold=PCT] [--iters=N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (iters < 1) iters = 1;

  const std::string csv = scanraw::bench::MustTempPath("qlog_overhead.csv");
  scanraw::CsvSpec spec;
  spec.num_rows = scanraw::kRows;
  spec.num_columns = scanraw::kColumns;
  auto info = scanraw::GenerateCsvFile(csv, spec);
  scanraw::bench::CheckOk(info.status(), "generate csv");

  auto plain = scanraw::MakeManager(csv, spec, "plain", /*with_log=*/false);
  auto logged = scanraw::MakeManager(csv, spec, "logged", /*with_log=*/true);

  scanraw::QuerySpec query;
  for (size_t c = 0; c < scanraw::kColumns; ++c) {
    query.sum_columns.push_back(c);
  }

  scanraw::RealClock clock;
  auto run_once = [&](scanraw::ScanRawManager* manager) {
    const int64_t t0 = clock.NowNanos();
    auto result = manager->Query("t", query);
    const double seconds =
        static_cast<double>(clock.NowNanos() - t0) * 1e-9;
    scanraw::bench::CheckOk(result.status(), "query");
    if (result->total_sum != info->total_sum) {
      std::fprintf(stderr, "FAIL: wrong sum %llu (want %llu)\n",
                   static_cast<unsigned long long>(result->total_sum),
                   static_cast<unsigned long long>(info->total_sum));
      std::exit(1);
    }
    return seconds;
  };

  // Warm the page cache and the thread pools on both sides before timing.
  for (int i = 0; i < scanraw::kWarmups; ++i) {
    run_once(plain.manager.get());
    run_once(logged.manager.get());
  }

  std::vector<double> plain_seconds, logged_seconds;
  for (int i = 0; i < iters; ++i) {
    // Interleave and alternate which side goes first within the pair, so
    // slow drift (thermal, page cache churn) hits both sides equally.
    if (i % 2 == 0) {
      plain_seconds.push_back(run_once(plain.manager.get()));
      logged_seconds.push_back(run_once(logged.manager.get()));
    } else {
      logged_seconds.push_back(run_once(logged.manager.get()));
      plain_seconds.push_back(run_once(plain.manager.get()));
    }
  }

  const double plain_med = scanraw::bench::MedianSeconds(plain_seconds);
  const double logged_med = scanraw::bench::MedianSeconds(logged_seconds);
  const double delta = logged_med - plain_med;
  const double overhead_pct = 100.0 * delta / plain_med;

  scanraw::bench::TablePrinter table(
      {"configuration", "median (ms)", "min (ms)", "overhead"});
  const auto min_of = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  table.AddRow({"cold scan, no log", Fmt("%.2f", plain_med * 1e3),
                Fmt("%.2f", min_of(plain_seconds) * 1e3), "-"});
  table.AddRow({"cold scan, query log", Fmt("%.2f", logged_med * 1e3),
                Fmt("%.2f", min_of(logged_seconds) * 1e3),
                Fmt("%+.2f%%", overhead_pct)});
  std::printf("Query-log overhead gate (%llu x %zu cold scans, "
              "median of %d interleaved)\n",
              static_cast<unsigned long long>(scanraw::kRows),
              scanraw::kColumns, iters);
  table.Print();

  if (delta > scanraw::kNoiseFloorSeconds &&
      overhead_pct > threshold_pct) {
    std::printf("FAIL: query logging adds %.2f%% (%.2f ms) to a cold scan; "
                "gate is %.1f%% beyond a %.1f ms noise floor\n",
                overhead_pct, delta * 1e3, threshold_pct,
                scanraw::kNoiseFloorSeconds * 1e3);
    return 1;
  }
  std::printf("OK: query logging overhead %.2f%% (threshold %.1f%%)\n",
              overhead_pct, threshold_pct);
  return 0;
}
