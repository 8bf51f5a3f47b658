#include "obs/query_log.h"

#include <chrono>
#include <variant>

#include "common/json.h"
#include "common/string_util.h"
#include "io/fault_injection.h"

namespace scanraw {
namespace obs {

namespace {

constexpr int kLogVersion = 1;
constexpr std::string_view kHeaderKey = "scanraw_query_log";

std::string SizeArray(const std::vector<size_t>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i]);
  }
  out += "]";
  return out;
}

int64_t WallClockMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// --- Reading a line back: FromJsonLine walks the line's members once with
// the shared JsonReader. Each member ToJsonLine writes lands in its field,
// an unknown member is skipped, and a missing or repeated one fails the
// line, so a torn prefix never parses.

using StageSeconds = std::vector<std::pair<std::string, double>>;
struct Field;
using Fields = std::vector<Field>;
// Where a member's value goes; `const Fields*` is a nested object.
using Slot = std::variant<uint64_t*, int64_t*, double*, bool*, std::string*,
                          std::vector<size_t>*, StageSeconds*, const Fields*>;
struct Field {
  std::string_view key;
  Slot slot;
};

template <typename T>
bool ReadSlot(JsonReader& r, T* out) {
  return r.Read(out);
}

bool ReadSlot(JsonReader& r, std::vector<size_t>* out) {
  out->clear();
  return r.ReadArray([&] { return r.Read(&out->emplace_back()); });
}

bool ReadSlot(JsonReader& r, StageSeconds* out) {
  out->clear();
  return r.ReadObject([&](const std::string& stage) {
    out->emplace_back(stage, 0.0);
    return r.Read(&out->back().second);
  });
}

bool ReadSlot(JsonReader& r, const Fields* fields) {
  uint32_t seen = 0;
  return r.ReadObject([&](const std::string& key) {
           for (size_t i = 0; i < fields->size(); ++i) {
             if ((*fields)[i].key != key) continue;
             if (seen & (1u << i)) return false;
             seen |= 1u << i;
             return std::visit([&](auto* out) { return ReadSlot(r, out); },
                               (*fields)[i].slot);
           }
           return r.SkipValue();
         }) &&
         seen == (1u << fields->size()) - 1;
}

// Header line for a fresh generation: {"scanraw_query_log":1}
std::string HeaderLine() {
  return "{\"" + std::string(kHeaderKey) + "\":" + std::to_string(kLogVersion) +
         "}";
}

// Parses a header line; returns the version or 0 when not a header.
uint64_t HeaderVersion(std::string_view line) {
  uint64_t version = 0;
  const Fields header = {{kHeaderKey, &version}};
  JsonReader r(line);
  return ReadSlot(r, &header) && r.AtEnd() ? version : 0;
}

}  // namespace

std::string QueryLogEvent::ToJsonLine() const {
  std::string out = "{";
  out += "\"seq\":" + std::to_string(seq);
  out += ",\"ts_unix_micros\":" + std::to_string(ts_unix_micros);
  out += ",\"table\":\"" + JsonEscape(table) + "\"";
  out += ",\"policy\":\"" + JsonEscape(policy) + "\"";
  out += ",\"status\":\"" + JsonEscape(status) + "\"";
  out += ",\"wall_seconds\":" + StringPrintf("%.9g", wall_seconds);
  out += ",\"columns\":" + SizeArray(columns);
  out += ",\"predicate_columns\":" + SizeArray(predicate_columns);
  out += ",\"rows_scanned\":" + std::to_string(rows_scanned);
  out += ",\"rows_matched\":" + std::to_string(rows_matched);
  out += ",\"stages\":{";
  for (size_t i = 0; i < stage_busy_seconds.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(stage_busy_seconds[i].first) +
           "\":" + StringPrintf("%.9g", stage_busy_seconds[i].second);
  }
  out += "}";
  out += ",\"chunks\":{\"cache\":" + std::to_string(chunks_from_cache) +
         ",\"db\":" + std::to_string(chunks_from_db) + ",\"raw\":" + std::to_string(chunks_from_raw) +
         ",\"skipped\":" + std::to_string(chunks_skipped) +
         ",\"written\":" + std::to_string(chunks_written) + "}";
  out += ",\"speculative_triggers\":" + std::to_string(speculative_triggers);
  out += ",\"bytes_read\":" + std::to_string(bytes_read);
  out += ",\"bytes_written\":" + std::to_string(bytes_written);
  out += ",\"useful_bytes_written\":" + std::to_string(useful_bytes_written);
  out += ",\"cache_hit_rate\":" + StringPrintf("%.9g", cache_hit_rate);
  out += ",\"posmap_hit_rate\":" + StringPrintf("%.9g", posmap_hit_rate);
  out += ",\"paid_off\":" + std::string(speculation_paid_off ? "true" : "false");
  out += ",\"advisor_used\":" + std::string(advisor_used ? "true" : "false");
  out += "}";
  return out;
}

bool QueryLogEvent::FromJsonLine(std::string_view line, QueryLogEvent* event) {
  QueryLogEvent e;
  const Fields chunks = {{"cache", &e.chunks_from_cache},
                         {"db", &e.chunks_from_db},
                         {"raw", &e.chunks_from_raw},
                         {"skipped", &e.chunks_skipped},
                         {"written", &e.chunks_written}};
  const Fields members = {
      {"seq", &e.seq},
      {"ts_unix_micros", &e.ts_unix_micros},
      {"table", &e.table},
      {"policy", &e.policy},
      {"status", &e.status},
      {"wall_seconds", &e.wall_seconds},
      {"columns", &e.columns},
      {"predicate_columns", &e.predicate_columns},
      {"rows_scanned", &e.rows_scanned},
      {"rows_matched", &e.rows_matched},
      {"stages", &e.stage_busy_seconds},
      {"chunks", &chunks},
      {"speculative_triggers", &e.speculative_triggers},
      {"bytes_read", &e.bytes_read},
      {"bytes_written", &e.bytes_written},
      {"useful_bytes_written", &e.useful_bytes_written},
      {"cache_hit_rate", &e.cache_hit_rate},
      {"posmap_hit_rate", &e.posmap_hit_rate},
      {"paid_off", &e.speculation_paid_off},
      {"advisor_used", &e.advisor_used}};
  JsonReader r(line);
  if (!ReadSlot(r, &members) || !r.AtEnd()) return false;
  *event = std::move(e);
  return true;
}

QueryLog::QueryLog(std::string path, QueryLogOptions options)
    : path_(std::move(path)), options_(options) {}

QueryLog::~QueryLog() {
  // Destruction cannot report errors; durable users call Close() and check.
  const Status st = Close();
  static_cast<void>(st);
}

Result<std::unique_ptr<QueryLog>> QueryLog::Open(const std::string& path,
                                                 QueryLogOptions options) {
  // Resume seq numbers past whatever already survives on disk (both
  // generations), so replayed histories see a strictly increasing stream.
  LoadStats stats;
  uint64_t resume_seq = 1;
  if (FileExists(path) || FileExists(path + ".1")) {
    auto existing = ReadAll(path, &stats);
    SCANRAW_RETURN_IF_ERROR(existing.status());
    resume_seq = stats.max_seq + 1;
  }
  std::unique_ptr<QueryLog> log(new QueryLog(path, options));
  MutexLock lock(log->mu_);
  log->next_seq_ = resume_seq;
  if (FileExists(path)) {
    // A crash mid-append leaves an unterminated trailing line. Detect it
    // here so the first append of this incarnation re-terminates it —
    // otherwise the new record would be concatenated onto the torn prefix
    // and both would be lost on the next reload.
    std::string existing;
    SCANRAW_ASSIGN_OR_RETURN(existing, ReadFileToString(path));
    log->needs_newline_ = !existing.empty() && existing.back() != '\n';
    SCANRAW_ASSIGN_OR_RETURN(log->file_, WritableFile::OpenForAppend(path));
    if (log->file_->bytes_written() == 0) {
      SCANRAW_RETURN_IF_ERROR(log->file_->Append(HeaderLine() + "\n"));
      SCANRAW_RETURN_IF_ERROR(log->file_->Flush());
    }
  } else {
    SCANRAW_RETURN_IF_ERROR(log->OpenFreshLocked());
  }
  return log;
}

Status QueryLog::OpenFreshLocked() {
  SCANRAW_ASSIGN_OR_RETURN(file_, WritableFile::Create(path_));
  SCANRAW_RETURN_IF_ERROR(file_->Append(HeaderLine() + "\n"));
  return file_->Flush();
}

Status QueryLog::RotateLocked() {
  // Close-rename-reopen. A crash between the kill-points leaves either the
  // old layout (full file at path_) or the new one (everything in the .1
  // generation); ReadAll stitches both, so no committed record is lost.
  Status st = file_->Flush();
  if (st.ok()) st = file_->Sync();
  if (st.ok()) st = file_->Close();
  file_.reset();
  SCANRAW_RETURN_IF_ERROR(st);
  FaultKillPoint("querylog.rotate.before_rename");
  SCANRAW_RETURN_IF_ERROR(RenameFile(path_, path_ + ".1"));
  FaultKillPoint("querylog.rotate.after_rename");
  ++rotations_;
  needs_newline_ = false;
  return OpenFreshLocked();
}

Status QueryLog::AppendLocked(const std::string& line) {
  if (file_ == nullptr) return Status::Aborted("query log closed");
  if (needs_newline_) {
    // Terminate the torn line left by a failed append; the prefix becomes
    // one corrupt line the reader drops and counts.
    SCANRAW_RETURN_IF_ERROR(file_->Append("\n", 1));
    needs_newline_ = false;
  }
  SCANRAW_RETURN_IF_ERROR(file_->Append(line));
  SCANRAW_RETURN_IF_ERROR(file_->Flush());
  if (options_.sync_each_append) return file_->Sync();
  return Status::OK();
}

Status QueryLog::Append(QueryLogEvent event) {
  MutexLock lock(mu_);
  event.seq = next_seq_++;
  if (event.ts_unix_micros == 0) event.ts_unix_micros = WallClockMicros();
  const std::string line = event.ToJsonLine() + "\n";
  if (file_ != nullptr && options_.rotate_bytes > 0 &&
      file_->bytes_written() + line.size() > options_.rotate_bytes &&
      file_->bytes_written() > HeaderLine().size() + 1) {
    SCANRAW_RETURN_IF_ERROR(RotateLocked());
  }
  Status st = AppendLocked(line);
  if (!st.ok()) {
    ++append_failures_;
    needs_newline_ = true;
    return st;
  }
  ++events_appended_;
  if (observer_) observer_(event);
  return Status::OK();
}

void QueryLog::SetObserver(std::function<void(const QueryLogEvent&)> observer) {
  MutexLock lock(mu_);
  observer_ = std::move(observer);
}

Status QueryLog::Close() {
  MutexLock lock(mu_);
  if (file_ == nullptr) return Status::OK();
  Status st = file_->Flush();
  if (st.ok()) st = file_->Sync();
  Status close_st = file_->Close();
  file_.reset();
  return st.ok() ? close_st : st;
}

uint64_t QueryLog::events_appended() const {
  MutexLock lock(mu_);
  return events_appended_;
}

uint64_t QueryLog::append_failures() const {
  MutexLock lock(mu_);
  return append_failures_;
}

uint64_t QueryLog::rotations() const {
  MutexLock lock(mu_);
  return rotations_;
}

uint64_t QueryLog::next_seq() const {
  MutexLock lock(mu_);
  return next_seq_;
}

Result<std::vector<QueryLogEvent>> QueryLog::ReadAll(const std::string& path,
                                                     LoadStats* stats) {
  LoadStats local;
  std::vector<QueryLogEvent> events;
  const std::string generations[] = {path + ".1", path};
  for (const std::string& gen : generations) {
    if (!FileExists(gen)) continue;
    std::string data;
    SCANRAW_ASSIGN_OR_RETURN(data, ReadFileToString(gen));
    ++local.generations;
    size_t start = 0;
    bool saw_header = false;
    while (start < data.size()) {
      size_t end = data.find('\n', start);
      const bool terminated = end != std::string::npos;
      if (!terminated) end = data.size();
      const std::string_view line(data.data() + start, end - start);
      start = end + 1;
      if (line.empty()) continue;
      if (!saw_header) {
        // First line must be the versioned header; a freshly created file
        // killed before the header write is empty and never gets here.
        const uint64_t version = HeaderVersion(line);
        if (version == 0 || version > kLogVersion) {
          return Status::Corruption("query log " + gen +
                                    ": bad or unsupported header");
        }
        local.version = static_cast<int>(version);
        saw_header = true;
        continue;
      }
      QueryLogEvent event;
      if (QueryLogEvent::FromJsonLine(line, &event)) {
        if (event.seq > local.max_seq) local.max_seq = event.seq;
        ++local.events;
        events.push_back(std::move(event));
      } else if (terminated) {
        ++local.dropped_corrupt;
      } else {
        ++local.dropped_torn;  // torn trailing record: expected crash damage
      }
    }
  }
  if (stats != nullptr) *stats = local;
  return events;
}

}  // namespace obs
}  // namespace scanraw
