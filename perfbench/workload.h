// The benchmark's three workloads: the raw file each one queries, the
// program settings it runs under, its fixed query sequence, and the answer
// an independent oracle expects for every query.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "datagen/csv_generator.h"
#include "exec/query.h"
#include "format/schema.h"
#include "scanraw/options.h"

namespace perfbench {

// The paper's disk rate (and fig5's), bytes/s. At 100 MB/s a spec_sequence
// session is fully I/O-bound and no CPU change can show.
inline constexpr uint64_t kPaperDiskBytesPerSecond = 436ull * 1000 * 1000;

// One distinct query of a workload and the answer the oracle computed for
// it from the rows in the file.
struct OracleQuery {
  std::string label;
  scanraw::QuerySpec spec;
  uint64_t expected_rows = 0;
  uint64_t expected_sum = 0;  // wrapping, like QueryResult::total_sum
};

// One registration or restart followed by its queries.
struct SessionPlan {
  // Reopen the previous session's database and catalog (reuse_existing_db
  // + LoadCatalog + AttachOptions) instead of registering the file afresh.
  bool restart = false;
  // SaveCatalog after the last answer (persists the posmap sidecar too).
  bool save_catalog = false;
  std::vector<size_t> queries;  // indexes into Workload::queries
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  std::string csv_path;
  scanraw::Schema schema;
  bool quoted = false;
  // datagen's spec for the file; unset when the benchmark writes it itself.
  std::optional<scanraw::CsvSpec> datagen;
  uint64_t num_rows = 0;
  uint64_t file_bytes = 0;
  uint64_t num_chunks = 0;
  scanraw::ScanRawOptions options;
  uint64_t disk_bandwidth = 0;  // bytes/s of the emulated disk, 0 = none
  std::vector<OracleQuery> queries;
  // One cycle of the closed loop; a run repeats it until time is up.
  std::vector<SessionPlan> cycle;
  // Queries the layer replay mirrors: the one that converts the most
  // columns, and the workload's most selective one.
  size_t full_query = 0;
  size_t narrow_query = 0;
};

// The workload's settings, queries and file path; touches no file.
scanraw::Result<Workload> DefineWorkload(const std::string& name,
                                         uint64_t seed,
                                         const std::string& dir,
                                         size_t num_workers);

// Writes the workload's raw file from its seed and fills in every query's
// expected answer from a naive pass over the file's bytes that shares no
// code with the program's reader, tokenizer or parser.
scanraw::Status GenerateData(Workload* w);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
