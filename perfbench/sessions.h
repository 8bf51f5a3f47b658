// Closed-loop sessions through the public ScanRawManager API: one client
// thread registers (or restarts) and issues each query only after the
// previous answer returned. Every answer is checked against the oracle.
#ifndef PERFBENCH_SESSIONS_H_
#define PERFBENCH_SESSIONS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/explain.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

// Counts attempted queries and every way one can fail.
struct Checker {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> messages;  // the first few failures
  void Fail(const std::string& message);
};

struct QueryRecord {
  size_t query = 0;  // index into Workload::queries
  double wall_s = 0;
  double cpu_s = 0;  // process CPU, all threads
  // Chunk provenance, from the manager's counters (both modes).
  uint64_t from_cache = 0;
  uint64_t from_db = 0;
  uint64_t from_raw = 0;
  uint64_t skipped = 0;
  uint64_t bytes_tokenized = 0;
  bool retired_after = false;  // IsRetired once this query returned
  std::optional<scanraw::obs::ExplainReport> explain;  // traced runs only
};

struct SessionRecord {
  bool restart = false;
  double setup_s = 0;    // Create + RegisterRawFile, or the restart calls
  double session_s = 0;  // registration to last answer + write drain
  double cpu_s = 0;      // process CPU over the session
  double catalog_load_s = -1;  // LoadCatalog, when one ran
  double limiter_wait_s = 0;
  double arbiter_read_wait_s = 0;
  double arbiter_write_wait_s = 0;
  double arbiter_write_busy_s = 0;
  uint64_t storage_bytes_written = 0;
  std::vector<QueryRecord> queries;
};

struct CycleRecord {
  std::vector<SessionRecord> sessions;
  double cpu_s = 0;  // sum of the sessions' process CPU
  // Per query index: chunk sources and the query after which the operator
  // had retired. Equal fingerprints mean equal paths to every answer.
  std::string Fingerprint(const Workload& w) const;
};

struct RunPaths {
  std::string db;
  std::string catalog;
};

// Runs one cycle of `w`. A non-null `spans` traces the cycle: ExplainReport
// per query, session spans recorded into `spans`, and, for workloads
// without a restart, a SaveCatalog + LoadCatalog probe after the cycle
// (outside its timings).
CycleRecord RunCycle(const Workload& w, const RunPaths& paths,
                     SpanStore* spans, int cycle_id, Checker* checker);

}  // namespace perfbench

#endif  // PERFBENCH_SESSIONS_H_
