// Selective access paths: projection-driven partial loading, serving later
// queries from partially loaded columns, and statistics-based chunk
// skipping (§3.3) — the metadata features around the core pipeline.
//
//   ./selective_scan

#include <cstdio>
#include <cstdlib>
#include <string>

#include "datagen/csv_generator.h"
#include "scanraw/scanraw_manager.h"

namespace {

std::string TempPath(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
}

#define CHECK_OK(expr)                                             \
  do {                                                             \
    auto _s = (expr);                                              \
    if (!_s.ok()) {                                                \
      std::fprintf(stderr, "%s\n", _s.ToString().c_str());         \
      return 1;                                                    \
    }                                                              \
  } while (0)

}  // namespace

int main() {
  using namespace scanraw;

  CsvSpec spec;
  spec.num_rows = 100000;
  spec.num_columns = 32;
  const std::string csv = TempPath("selective.csv");
  auto info = GenerateCsvFile(csv, spec);
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 1;
  }

  ScanRawManager::Config config;
  config.db_path = TempPath("selective.db");
  auto manager_or = ScanRawManager::Create(config);
  if (!manager_or.ok()) {
    std::fprintf(stderr, "%s\n", manager_or.status().ToString().c_str());
    return 1;
  }
  auto& manager = *manager_or;
  ScanRawOptions options;
  options.policy = LoadPolicy::kFullLoad;  // load whatever each query touches
  options.num_workers = 4;
  options.chunk_rows = 1 << 13;
  CHECK_OK(manager->RegisterRawFile("t", csv, CsvSchema(spec), options));

  // --- 1. projection loads only the touched columns ---------------------
  QuerySpec narrow;
  narrow.sum_columns = {3, 7};
  auto r1 = manager->Query("t", narrow);
  CHECK_OK(r1.status());
  auto meta = manager->catalog()->GetTable("t");
  std::printf("after SUM(C3+C7): loaded fraction = %.1f%% (only the 2 "
              "projected columns of %zu\nare in the database)\n\n",
              100 * meta->LoadedFraction(), spec.num_columns);

  // --- 2. a query inside the loaded columns never touches the raw file --
  QuerySpec subset;
  subset.sum_columns = {3};
  auto r2 = manager->Query("t", subset);
  CHECK_OK(r2.status());
  ScanRaw* op = manager->GetOperator("t");
  std::printf("SUM(C3) answered from cache + database segments "
              "(raw chunks read so far: %llu,\nunchanged by the second "
              "query)\n\n",
              static_cast<unsigned long long>(
                  op->profile().Get(ProfileCounter::kChunksFromRaw)));

  // --- 3. statistics-based chunk skipping --------------------------------
  // Load everything first so every chunk has min/max statistics.
  QuerySpec all;
  for (size_t c = 0; c < spec.num_columns; ++c) all.sum_columns.push_back(c);
  CHECK_OK(manager->Query("t", all).status());

  QuerySpec impossible = all;
  impossible.predicate.range = RangePredicate{0, int64_t{1} << 40,
                                              int64_t{1} << 41};
  auto r3 = manager->Query("t", impossible);
  CHECK_OK(r3.status());
  std::printf("predicate C0 in [2^40, 2^41]: %llu rows scanned — min/max "
              "statistics proved every\nchunk irrelevant, so none was "
              "read\n\n",
              static_cast<unsigned long long>(r3->rows_scanned));

  QuerySpec selective = all;
  selective.predicate.range = RangePredicate{0, 0, 1 << 20};
  auto r4 = manager->Query("t", selective);
  CHECK_OK(r4.status());
  std::printf("predicate C0 in [0, 2^20]: %llu of %llu rows matched "
              "(selectivity %.4f%%)\n",
              static_cast<unsigned long long>(r4->rows_matched),
              static_cast<unsigned long long>(spec.num_rows),
              100.0 * static_cast<double>(r4->rows_matched) /
                  static_cast<double>(spec.num_rows));
  return 0;
}
