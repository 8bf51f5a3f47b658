#include "workload.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <optional>
#include <random>

#include "datagen/csv_generator.h"

namespace perfbench {
namespace {

using scanraw::Result;
using scanraw::Status;

constexpr uint64_t kDomain = 1ull << 31;  // values are uniform below this

// Every workload has 16 chunks of 2^13 rows, so per-chunk work is large
// enough for parallel TOKENIZE (>= 128 KiB chunks) on every file.
constexpr uint64_t kRows = 1ull << 17;
constexpr uint64_t kChunkRows = 1ull << 13;


scanraw::QuerySpec SumOf(size_t first, size_t last) {
  scanraw::QuerySpec spec;
  for (size_t c = first; c <= last; ++c) spec.sum_columns.push_back(c);
  return spec;
}

scanraw::QuerySpec RangeSum(size_t sum_column, int64_t lo, int64_t hi) {
  scanraw::QuerySpec spec;
  spec.sum_columns = {sum_column};
  spec.predicate.range = scanraw::RangePredicate{0, lo, hi};
  return spec;
}

// A window over C0 covering `share` of the value domain, placed by `rng`.
std::pair<int64_t, int64_t> Window(std::mt19937_64& rng, double share) {
  const auto width = static_cast<uint64_t>(share * kDomain);
  const uint64_t lo = rng() % (kDomain - width);
  return {static_cast<int64_t>(lo), static_cast<int64_t>(lo + width)};
}

// ---- independent oracle ---------------------------------------------------

// RFC-4180 reader written for the oracle: one byte at a time, collecting
// each record's unescaped fields. Unquoted files never contain '"', so the
// same reader serves every workload.
class NaiveCsvReader {
 public:
  explicit NaiveCsvReader(size_t fields) : fields_(fields) {}

  template <typename OnRecord>
  Status Read(const std::string& path, OnRecord&& on_record) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return Status::IoError("oracle: cannot open " + path);
    std::vector<char> block(1 << 20);
    size_t field = 0;
    bool in_quotes = false;
    bool quote_pending = false;  // saw '"' inside quotes: end or escape
    for (auto& s : fields_) s.clear();
    size_t n = 0;
    while ((n = std::fread(block.data(), 1, block.size(), f)) > 0) {
      for (size_t i = 0; i < n; ++i) {
        const char c = block[i];
        if (quote_pending) {
          quote_pending = false;
          if (c == '"') {  // doubled quote: one literal quote
            fields_[field].push_back('"');
            continue;
          }
          in_quotes = false;  // closing quote; c is handled below
        }
        if (in_quotes) {
          if (c == '"') {
            quote_pending = true;
          } else {
            fields_[field].push_back(c);
          }
        } else if (c == '"') {
          in_quotes = true;
        } else if (c == ',') {
          if (++field >= fields_.size()) {
            std::fclose(f);
            return Status::Corruption("oracle: too many fields");
          }
        } else if (c == '\n') {
          if (field + 1 != fields_.size()) {
            std::fclose(f);
            return Status::Corruption("oracle: short record");
          }
          on_record(fields_);
          field = 0;
          for (auto& s : fields_) s.clear();
        } else {
          fields_[field].push_back(c);
        }
      }
    }
    std::fclose(f);
    if (field != 0 || !fields_[0].empty()) {
      return Status::Corruption("oracle: unterminated last record");
    }
    return Status::OK();
  }

 private:
  std::vector<std::string> fields_;
};

// Fills expected_rows / expected_sum for every query from one pass over the
// file. Numeric columns are the schema's uint32 columns.
Status ComputeOracle(Workload* w) {
  const size_t ncols = w->schema.num_columns();
  std::vector<bool> numeric(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    numeric[c] = w->schema.column(c).type == scanraw::FieldType::kUint32;
  }
  std::vector<uint64_t> values(ncols, 0);
  uint64_t rows = 0;
  Status bad_value = Status::OK();
  NaiveCsvReader reader(ncols);
  Status read = reader.Read(w->csv_path, [&](const std::vector<std::string>&
                                                 fields) {
    ++rows;
    for (size_t c = 0; c < ncols; ++c) {
      if (!numeric[c]) continue;
      uint64_t v = 0;
      const std::string& s = fields[c];
      auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
      if (ec != std::errc() || end != s.data() + s.size() || s.empty()) {
        bad_value = Status::Corruption("oracle: bad number '" + s + "'");
      }
      values[c] = v;
    }
    for (OracleQuery& q : w->queries) {
      const scanraw::Predicate& p = q.spec.predicate;
      if (p.range.has_value()) {
        const auto v = static_cast<int64_t>(values[p.range->column]);
        if (v < p.range->lo || v > p.range->hi) continue;
      }
      if (p.pattern.has_value() &&
          fields[p.pattern->column].find(p.pattern->pattern) ==
              std::string::npos) {
        continue;
      }
      ++q.expected_rows;
      for (size_t c : q.spec.sum_columns) q.expected_sum += values[c];
    }
  });
  if (!read.ok()) return read;
  if (!bad_value.ok()) return bad_value;
  if (rows != w->num_rows) {
    return Status::Corruption("oracle: row count differs from generator");
  }
  return Status::OK();
}

// ---- data ----------------------------------------------------------------

Status SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok ? Status::OK() : Status::IoError("cannot sync " + path);
}

// spec_sequence's file: 16 uint32 columns with rows sorted on C0, so each
// chunk covers a narrow band of C0 and min/max statistics can skip chunks
// for C0-range queries. datagen has no sorted mode, hence this writer.
Result<uint64_t> WriteSortedCsv(const std::string& path, uint64_t seed,
                                size_t ncols) {
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> c0(kRows);
  for (auto& v : c0) v = static_cast<uint32_t>(rng() % kDomain);
  std::sort(c0.begin(), c0.end());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot create " + path);
  std::string line;
  uint64_t bytes = 0;
  char num[16];
  for (uint64_t r = 0; r < kRows; ++r) {
    line.clear();
    for (size_t c = 0; c < ncols; ++c) {
      const uint32_t v =
          c == 0 ? c0[r] : static_cast<uint32_t>(rng() % kDomain);
      if (c > 0) line.push_back(',');
      line.append(num, std::to_chars(num, num + sizeof(num), v).ptr);
    }
    line.push_back('\n');
    bytes += std::fwrite(line.data(), 1, line.size(), f);
  }
  if (std::fclose(f) != 0 || bytes == 0) {
    return Status::IoError("cannot write " + path);
  }
  return bytes;
}

void DefineRawCold(Workload* w) {
  scanraw::CsvSpec spec;
  spec.num_rows = kRows;
  spec.num_columns = 64;
  spec.seed = w->seed;
  w->datagen = spec;
  w->schema = scanraw::CsvSchema(spec);

  std::mt19937_64 rng(w->seed ^ 0x5ca9);
  const auto [lo, hi] = Window(rng, 0.1);
  w->queries = {{"full", SumOf(0, 63)}, {"narrow", RangeSum(1, lo, hi)}};
  // A fresh manager per query. Two full queries per narrow one put
  // query_p50_s inside the full cluster (a 1:1 mix would put the median on
  // the gap between the two), and a full query follows the latest
  // registration, so first_query_s tracks full conversion too.
  w->cycle = {{false, false, {1}}, {false, false, {0}}, {false, false, {0}}};
  w->full_query = 0;
  w->narrow_query = 1;

  w->options.policy = scanraw::LoadPolicy::kExternalTables;
  w->options.cache_capacity_chunks = 0;
  w->options.cache_positional_maps = false;
}

void DefineSpecSequence(Workload* w) {
  constexpr size_t kCols = 16;
  w->schema = scanraw::Schema::AllUint32(kCols);

  std::mt19937_64 rng(w->seed ^ 0x5e9);
  w->queries = {{"full", SumOf(0, kCols - 1)}, {"two_column", SumOf(2, 3)}};
  for (int k = 0; k < 4; ++k) {
    const auto [lo, hi] = Window(rng, 0.05);
    w->queries.push_back({"c0_range", RangeSum(1, lo, hi)});
  }
  // A fixed Fig 8 style sequence that runs past retirement.
  std::vector<size_t> seq;
  for (int k = 0; k < 6; ++k) {
    seq.push_back(0);
    seq.push_back(2 + k % 4);
    seq.push_back(1);
  }
  w->cycle = {{false, false, seq}};
  w->full_query = 0;
  w->narrow_query = 2;

  w->options.policy = scanraw::LoadPolicy::kSpeculativeLoading;
  // A quarter of the chunks: the working set exceeds the program's cache.
  w->options.cache_capacity_chunks = kRows / kChunkRows / 4;
  w->disk_bandwidth = kPaperDiskBytesPerSecond;
}

void DefineRestartQuoted(Workload* w) {
  scanraw::CsvSpec spec;
  spec.num_rows = kRows;
  spec.num_columns = 16;
  spec.quoted_columns = 4;
  spec.seed = w->seed;
  w->datagen = spec;
  w->schema = scanraw::CsvSchema(spec);
  w->quoted = true;

  std::mt19937_64 rng(w->seed ^ 0x7e5);
  // The first query reaches the last (quoted) column, so its TOKENIZE maps
  // every field and the persisted maps cover every later query.
  scanraw::QuerySpec quoted = SumOf(0, 11);
  quoted.predicate.pattern = scanraw::PatternPredicate{15, "\""};
  const auto [lo, hi] = Window(rng, 0.1);
  w->queries = {{"quoted_filter", quoted},
                {"numeric", SumOf(0, 11)},
                {"narrow", RangeSum(1, lo, hi)}};
  w->cycle = {{false, true, {0, 1, 2}}, {true, false, {0, 1, 2}}};
  w->full_query = 0;
  w->narrow_query = 2;

  w->options.policy = scanraw::LoadPolicy::kInvisibleLoading;
  w->options.quoted_fields = true;
  w->options.cache_capacity_chunks = 0;
  w->options.cache_positional_maps = true;
  w->options.persist_positional_maps = true;
  // The posmap cache holds every chunk: this workload fits in cache.
  w->options.positional_map_cache_chunks = 64;
  w->options.positional_map_cache_bytes = 0;
}

}  // namespace

Result<Workload> DefineWorkload(const std::string& name, uint64_t seed,
                                const std::string& dir, size_t num_workers) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.csv_path = dir + "/" + name + ".csv";
  w.num_rows = kRows;
  w.num_chunks = kRows / kChunkRows;
  w.options.num_workers = num_workers;
  w.options.chunk_rows = kChunkRows;
  if (name == "raw_cold") {
    DefineRawCold(&w);
  } else if (name == "spec_sequence") {
    DefineSpecSequence(&w);
  } else if (name == "restart_quoted") {
    DefineRestartQuoted(&w);
  } else {
    return Status::InvalidArgument("unknown workload " + name);
  }
  return w;
}

Status GenerateData(Workload* w) {
  // The generator's own total cross-checks the oracle's reader where the
  // full query has no filter.
  std::optional<uint64_t> generator_sum;
  if (w->datagen.has_value()) {
    auto info = scanraw::GenerateCsvFile(w->csv_path, *w->datagen);
    if (!info.ok()) return info.status();
    w->file_bytes = info->file_bytes;
    if (w->queries[w->full_query].spec.predicate.empty()) {
      generator_sum = info->total_sum;
    }
  } else {
    auto bytes =
        WriteSortedCsv(w->csv_path, w->seed, w->schema.num_columns());
    if (!bytes.ok()) return bytes.status();
    w->file_bytes = *bytes;
  }
  // Flush the new file now, so kernel writeback does not overlap the
  // measured cycles.
  if (Status s = SyncFile(w->csv_path); !s.ok()) return s;
  if (Status s = ComputeOracle(w); !s.ok()) return s;
  if (generator_sum.has_value() &&
      *generator_sum != w->queries[w->full_query].expected_sum) {
    return Status::Corruption("oracle disagrees with the generator's sum");
  }
  return Status::OK();
}

}  // namespace perfbench
