#include "sessions.h"

#include <memory>

#include "db/recovery.h"
#include "io/file.h"
#include "scanraw/scanraw_manager.h"

namespace perfbench {
namespace {

using scanraw::ScanRawManager;
using scanraw::Status;

constexpr const char* kTable = "t";
constexpr size_t kMaxMessages = 10;

double SecondsSince(int64_t start_ns) { return (WallNanos() - start_ns) * 1e-9; }

// Chunk-source counters of the manager's telemetry registry. Operators and
// the retired heap scan both count there, so one read covers every path.
struct Counters {
  uint64_t cache = 0, db = 0, raw = 0, skipped = 0, tokenized = 0;
};

Counters ReadCounters(ScanRawManager& m) {
  scanraw::obs::MetricsRegistry& r = m.telemetry()->metrics();
  const auto v = [&r](const char* name) { return r.GetCounter(name)->value(); };
  Counters c;
  c.cache = v("scanraw.chunks_from_cache");
  c.db = v("scanraw.chunks_from_db") + v("heapscan.chunks_scanned");
  c.raw = v("scanraw.chunks_from_raw");
  c.skipped = v("scanraw.chunks_skipped") + v("heapscan.chunks_skipped");
  c.tokenized = v("scanraw.tokenize.bytes");
  return c;
}

ScanRawManager::Config ManagerConfig(const Workload& w, const RunPaths& paths,
                                     bool reuse) {
  ScanRawManager::Config config;
  config.db_path = paths.db;
  config.disk_bandwidth = w.disk_bandwidth;
  config.reuse_existing_db = reuse;
  return config;
}

void CheckAnswer(const Workload& w, const SessionPlan& plan,
                 const OracleQuery& oq, const QueryRecord& qr,
                 const scanraw::Result<scanraw::QueryResult>& result,
                 ScanRawManager& m, Checker* checker) {
  const std::string where = w.name + " query '" + oq.label + "'";
  if (!result.ok()) {
    checker->Fail(where + ": " + result.status().ToString());
  } else if (result->rows_matched != oq.expected_rows ||
             result->total_sum != oq.expected_sum) {
    checker->Fail(where + ": got rows=" +
                  std::to_string(result->rows_matched) +
                  " sum=" + std::to_string(result->total_sum) +
                  ", oracle rows=" + std::to_string(oq.expected_rows) +
                  " sum=" + std::to_string(oq.expected_sum));
  } else if (plan.restart && qr.bytes_tokenized != 0) {
    checker->Fail(where + ": tokenized " + std::to_string(qr.bytes_tokenized) +
                  " bytes after restart");
  } else if (plan.restart && m.last_recovery().posmaps_dropped != 0) {
    checker->Fail(where + ": the restart dropped the posmap sidecar");
  }
}

// Runs one session; on success leaves its manager in `*live` (destroying
// it is not part of the session's time).
SessionRecord RunSession(const Workload& w, const SessionPlan& plan,
                         const RunPaths& paths, SpanStore* spans,
                         int session_id, Checker* checker,
                         std::unique_ptr<ScanRawManager>* live) {
  SessionRecord rec;
  rec.restart = plan.restart;
  const auto fail_all = [&](const std::string& why) {
    for (size_t i = 0; i < plan.queries.size(); ++i) {
      ++checker->attempted;
      checker->Fail(w.name + ": " + why);
    }
  };
  ScopedSpan session_span(spans, "session", session_id);
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = WallNanos();
  std::unique_ptr<ScanRawManager> m;
  {
    ScopedSpan setup_span(spans, "scanraw.setup", session_id);
    {
      ScopedSpan span(spans, "scanraw.create", session_id);
      auto created = ScanRawManager::Create(ManagerConfig(w, paths,
                                                          plan.restart));
      if (!created.ok()) {
        fail_all("create: " + created.status().ToString());
        return rec;
      }
      m = std::move(*created);
    }
    Status st;
    if (plan.restart) {
      const int64_t l0 = WallNanos();
      {
        ScopedSpan span(spans, "scanraw.load_catalog", session_id);
        st = m->LoadCatalog(paths.catalog);
      }
      rec.catalog_load_s = SecondsSince(l0);
      if (st.ok()) {
        ScopedSpan span(spans, "scanraw.attach_options", session_id);
        st = m->AttachOptions(kTable, w.options);
      }
    } else {
      ScopedSpan span(spans, "scanraw.register_raw_file", session_id);
      st = m->RegisterRawFile(kTable, w.csv_path, w.schema, w.options);
    }
    if (!st.ok()) {
      fail_all("setup: " + st.ToString());
      return rec;
    }
  }
  rec.setup_s = SecondsSince(t0);

  for (size_t qi : plan.queries) {
    const OracleQuery& oq = w.queries[qi];
    QueryRecord qr;
    qr.query = qi;
    const Counters before = ReadCounters(*m);
    scanraw::obs::ExplainReport explain;
    const double qcpu0 = ProcessCpuSeconds();
    const int64_t q0 = WallNanos();
    auto result = [&] {
      ScopedSpan span(spans, "scanraw.query." + oq.label, session_id);
      return m->Query(kTable, oq.spec, spans != nullptr ? &explain : nullptr);
    }();
    qr.wall_s = SecondsSince(q0);
    qr.cpu_s = ProcessCpuSeconds() - qcpu0;
    const Counters after = ReadCounters(*m);
    qr.from_cache = after.cache - before.cache;
    qr.from_db = after.db - before.db;
    qr.from_raw = after.raw - before.raw;
    qr.skipped = after.skipped - before.skipped;
    qr.bytes_tokenized = after.tokenized - before.tokenized;
    qr.retired_after = m->IsRetired(kTable);
    if (spans != nullptr) qr.explain = std::move(explain);
    ++checker->attempted;
    CheckAnswer(w, plan, oq, qr, result, *m, checker);
    rec.queries.push_back(std::move(qr));
  }
  // Work deferred past the last answer still belongs to the session.
  {
    ScopedSpan span(spans, "scanraw.wait_for_writes", session_id);
    if (scanraw::ScanRaw* op = m->GetOperator(kTable)) op->WaitForWrites();
  }
  if (plan.save_catalog) {
    ScopedSpan span(spans, "scanraw.save_catalog", session_id);
    const Status saved = m->SaveCatalog(paths.catalog);
    if (!saved.ok()) checker->Fail(w.name + ": save: " + saved.ToString());
  }
  rec.session_s = SecondsSince(t0);
  rec.cpu_s = ProcessCpuSeconds() - cpu0;

  if (m->limiter() != nullptr) {
    rec.limiter_wait_s = m->limiter()->total_wait_nanos() * 1e-9;
  }
  rec.arbiter_read_wait_s = m->arbiter()->reader_wait_nanos() * 1e-9;
  rec.arbiter_write_wait_s = m->arbiter()->writer_wait_nanos() * 1e-9;
  rec.arbiter_write_busy_s = m->arbiter()->writer_busy_nanos() * 1e-9;
  rec.storage_bytes_written = m->storage()->bytes_written();
  *live = std::move(m);
  return rec;
}

// Traced runs of workloads without a restart still report catalog.load_s:
// save the live manager's catalog, then time LoadCatalog in a new one.
double ProbeCatalogLoad(const Workload& w, const RunPaths& paths,
                        std::unique_ptr<ScanRawManager> live, SpanStore* spans,
                        int session_id, Checker* checker) {
  if (const Status s = live->SaveCatalog(paths.catalog); !s.ok()) {
    checker->Fail(w.name + ": probe save: " + s.ToString());
    return -1;
  }
  live.reset();
  auto m = ScanRawManager::Create(ManagerConfig(w, paths, /*reuse=*/true));
  if (!m.ok()) {
    checker->Fail(w.name + ": probe create: " + m.status().ToString());
    return -1;
  }
  const int64_t t0 = WallNanos();
  Status s;
  {
    ScopedSpan span(spans, "scanraw.load_catalog", session_id);
    s = (*m)->LoadCatalog(paths.catalog);
  }
  const double seconds = SecondsSince(t0);
  if (!s.ok()) {
    checker->Fail(w.name + ": probe load: " + s.ToString());
    return -1;
  }
  return seconds;
}

}  // namespace

void Checker::Fail(const std::string& message) {
  ++failed;
  if (messages.size() < kMaxMessages) messages.push_back(message);
}

std::string CycleRecord::Fingerprint(const Workload& w) const {
  std::string out;
  int index = 0;
  for (size_t s = 0; s < sessions.size(); ++s) {
    out += (s == 0 ? "" : " || ");
    out += sessions[s].restart ? "restart:" : "register:";
    for (const QueryRecord& q : sessions[s].queries) {
      out += " q" + std::to_string(++index) + "=" + w.queries[q.query].label +
             "[c" + std::to_string(q.from_cache) + " d" +
             std::to_string(q.from_db) + " r" + std::to_string(q.from_raw) +
             " s" + std::to_string(q.skipped) + "]";
      if (q.retired_after) out += "R";
    }
  }
  return out;
}

CycleRecord RunCycle(const Workload& w, const RunPaths& paths,
                     SpanStore* spans, int cycle_id, Checker* checker) {
  for (const std::string& path :
       {paths.db, paths.catalog,
        scanraw::PosmapSidecarPath(paths.catalog, kTable)}) {
    if (const Status s = scanraw::RemoveFileIfExists(path); !s.ok()) {
      checker->Fail(w.name + ": cleanup: " + s.ToString());
    }
  }
  CycleRecord cycle;
  std::unique_ptr<ScanRawManager> live;
  bool restarted = false;
  for (size_t s = 0; s < w.cycle.size(); ++s) {
    live.reset();  // the previous session's manager, untimed
    const int session_id = cycle_id * 10 + static_cast<int>(s);
    cycle.sessions.push_back(RunSession(w, w.cycle[s], paths, spans,
                                        session_id, checker, &live));
    cycle.cpu_s += cycle.sessions.back().cpu_s;
    restarted |= w.cycle[s].restart;
  }
  if (spans != nullptr && !restarted && live != nullptr) {
    cycle.sessions.back().catalog_load_s = ProbeCatalogLoad(
        w, paths, std::move(live), spans, cycle_id * 10 + 9, checker);
  }
  return cycle;
}

}  // namespace perfbench
