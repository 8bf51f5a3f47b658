// Figure 5 — time spent per chunk in each pipeline stage (READ, TOKENIZE,
// PARSE, WRITE) as a function of the number of columns (2..256), absolute
// (a) and relative (b). Measured on the REAL pipeline with full loading,
// like the paper; the disk is emulated at 436 MB/s so READ/WRITE times are
// meaningful on a page-cached host. Row count is scaled down from the
// paper's 2^26; per-chunk stage times are averages, so the shape is
// preserved.

#include <cstdio>

#include "bench/bench_util.h"
#include "datagen/csv_generator.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace {

constexpr size_t kColumnAxis[] = {2, 4, 8, 16, 32, 64, 128, 256};
constexpr uint64_t kRows = 1 << 15;
constexpr uint64_t kChunkRows = 1 << 12;  // 8 chunks per file

struct StageTimes {
  double read_s, tokenize_s, parse_s, write_s;
  double total() const { return read_s + tokenize_s + parse_s + write_s; }
};

StageTimes MeasureColumns(size_t columns) {
  const std::string csv =
      bench::MustTempPath("fig5_" + std::to_string(columns) + ".csv");
  CsvSpec spec;
  spec.num_rows = kRows;
  spec.num_columns = columns;
  auto info = GenerateCsvFile(csv, spec);
  bench::CheckOk(info.status(), "generate csv");

  ScanRawManager::Config config;
  config.db_path = csv + ".db";
  config.disk_bandwidth = 436ull << 20;
  auto manager = ScanRawManager::Create(config);
  bench::CheckOk(manager.status(), "create manager");
  ScanRawOptions options;
  options.policy = LoadPolicy::kFullLoad;  // WRITE included, as in the paper
  options.num_workers = 2;
  options.chunk_rows = kChunkRows;
  bench::CheckOk(
      (*manager)->RegisterRawFile("t", csv, CsvSchema(spec), options),
      "register");
  QuerySpec query;
  for (size_t c = 0; c < columns; ++c) query.sum_columns.push_back(c);
  auto result = (*manager)->Query("t", query);
  bench::CheckOk(result.status(), "query");

  ScanRaw* op = (*manager)->GetOperator("t");
  if (op == nullptr) {
    std::fprintf(stderr, "operator retired too early\n");
    std::exit(1);
  }
  const obs::StageTotals& stages = op->profile().stages;
  auto per_chunk = [&stages](obs::Stage stage) {
    return stages.chunks(stage) == 0
               ? 0.0
               : static_cast<double>(stages.nanos(stage)) * 1e-9 /
                     static_cast<double>(stages.chunks(stage));
  };
  return StageTimes{per_chunk(obs::Stage::kRead),
                    per_chunk(obs::Stage::kTokenize),
                    per_chunk(obs::Stage::kParse),
                    per_chunk(obs::Stage::kWrite)};
}

}  // namespace
}  // namespace scanraw

int main() {
  using scanraw::bench::Fmt;
  std::printf("Figure 5 — per-chunk pipeline stage times vs #columns "
              "(real pipeline, full load,\n%llu rows, %llu-row chunks, "
              "436 MB/s emulated disk)\n\n",
              static_cast<unsigned long long>(scanraw::kRows),
              static_cast<unsigned long long>(scanraw::kChunkRows));

  scanraw::bench::TablePrinter abs({"columns", "READ (ms)", "TOKENIZE (ms)",
                                    "PARSE (ms)", "WRITE (ms)"});
  scanraw::bench::TablePrinter rel({"columns", "READ %", "TOKENIZE %",
                                    "PARSE %", "WRITE %", "I/O %"});
  for (size_t columns : scanraw::kColumnAxis) {
    auto t = scanraw::MeasureColumns(columns);
    abs.AddRow({std::to_string(columns), Fmt("%.2f", t.read_s * 1e3),
                Fmt("%.2f", t.tokenize_s * 1e3), Fmt("%.2f", t.parse_s * 1e3),
                Fmt("%.2f", t.write_s * 1e3)});
    const double total = t.total();
    rel.AddRow({std::to_string(columns), Fmt("%.1f", 100 * t.read_s / total),
                Fmt("%.1f", 100 * t.tokenize_s / total),
                Fmt("%.1f", 100 * t.parse_s / total),
                Fmt("%.1f", 100 * t.write_s / total),
                Fmt("%.1f", 100 * (t.read_s + t.write_s) / total)});
  }
  std::printf("(a) absolute time per chunk\n");
  abs.Print();
  std::printf("\n(b) relative distribution\n");
  rel.Print();

  scanraw::bench::BenchJsonWriter writer("fig5_pipeline");
  writer.AddExtra("relative",
                  scanraw::bench::BenchJsonWriter::TableJson(rel));
  writer.Write(abs);
  std::printf(
      "\nExpected shape (paper): per-chunk time ~doubles with column count; "
      "PARSE dominates\nbeyond ~16 columns; the I/O share (READ+WRITE) falls "
      "from ~45%% at 2 columns to ~20%%\nat 256 columns while PARSE grows "
      "toward ~60%%.\n");
  return 0;
}
