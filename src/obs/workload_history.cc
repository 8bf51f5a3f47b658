#include "obs/workload_history.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/string_util.h"
#include "io/file.h"

namespace scanraw {
namespace obs {

namespace {

constexpr std::string_view kHeader = "scanraw-history v1";

// Parses "key=value" into `out` when `token` starts with "key=".
bool KeyedU64(const std::string& token, std::string_view key, uint64_t* out) {
  if (token.size() <= key.size() + 1 ||
      token.compare(0, key.size(), key) != 0 || token[key.size()] != '=') {
    return false;
  }
  char* end = nullptr;
  const unsigned long long v =
      std::strtoull(token.c_str() + key.size() + 1, &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

void WorkloadHistory::Observe(const QueryLogEvent& event) {
  MutexLock lock(mu_);
  if (event.seq != 0 && event.seq <= last_seq_) return;  // idempotent replay
  if (event.seq > last_seq_) last_seq_ = event.seq;
  ++events_observed_;
  if (event.table.empty()) return;
  TableUsage& table = tables_[event.table];
  table.last_seq = last_seq_;
  if (event.status != "ok") return;  // failed queries count for recency only
  ++table.queries;
  table.rows_scanned += event.rows_scanned;
  table.rows_matched += event.rows_matched;
  for (size_t c : event.columns) {
    ColumnUsage& col = table.columns[c];
    ++col.touches;
    col.last_seq = last_seq_;
  }
  for (size_t c : event.predicate_columns) {
    ColumnUsage& col = table.columns[c];
    ++col.predicates;
    col.last_seq = last_seq_;
  }
}

TableUsage WorkloadHistory::TableSnapshot(const std::string& table) const {
  MutexLock lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? TableUsage{} : it->second;
}

std::vector<std::string> WorkloadHistory::Tables() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, usage] : tables_) out.push_back(name);
  return out;
}

uint64_t WorkloadHistory::DropTablesNotIn(const std::set<std::string>& keep) {
  MutexLock lock(mu_);
  uint64_t dropped = 0;
  for (auto it = tables_.begin(); it != tables_.end();) {
    if (keep.count(it->first) == 0) {
      it = tables_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

uint64_t WorkloadHistory::last_seq() const {
  MutexLock lock(mu_);
  return last_seq_;
}

uint64_t WorkloadHistory::events_observed() const {
  MutexLock lock(mu_);
  return events_observed_;
}

Status WorkloadHistory::SaveToFile(const std::string& path) const {
  std::string out(kHeader);
  out += "\n";
  {
    MutexLock lock(mu_);
    out += "meta last_seq=" + std::to_string(last_seq_) +
           " events=" + std::to_string(events_observed_) + "\n";
    for (const auto& [name, table] : tables_) {
      out += "table " + PercentEscape(name) +
             " queries=" + std::to_string(table.queries) +
             " rows_scanned=" + std::to_string(table.rows_scanned) +
             " rows_matched=" + std::to_string(table.rows_matched) +
             " last_seq=" + std::to_string(table.last_seq) + "\n";
      for (const auto& [id, col] : table.columns) {
        out += "col " + PercentEscape(name) + " " + std::to_string(id) +
               " touches=" + std::to_string(col.touches) +
               " predicates=" + std::to_string(col.predicates) +
               " last_seq=" + std::to_string(col.last_seq) + "\n";
      }
    }
  }
  return AtomicWriteFile(path, out);
}

Status WorkloadHistory::LoadFromFile(const std::string& path,
                                     LoadStats* stats) {
  std::string data;
  SCANRAW_ASSIGN_OR_RETURN(data, ReadFileToString(path));
  LoadStats local;
  std::map<std::string, TableUsage> tables;
  uint64_t last_seq = 0;
  uint64_t events = 0;

  std::istringstream lines(data);
  std::string line;
  bool first = true;
  // AtomicWriteFile makes a torn tail near-impossible, but the reader stays
  // tolerant anyway: a final unterminated line is dropped, not fatal.
  const bool ends_with_newline = !data.empty() && data.back() == '\n';
  std::vector<std::string> all_lines;
  while (std::getline(lines, line)) all_lines.push_back(line);
  if (!ends_with_newline && !all_lines.empty()) {
    all_lines.pop_back();
    local.torn_tail_dropped = true;
  }
  for (const std::string& l : all_lines) {
    if (first) {
      if (l != kHeader) {
        return Status::Corruption("workload history " + path +
                                  ": bad or unsupported header");
      }
      local.version = 1;
      first = false;
      continue;
    }
    std::istringstream fields(l);
    std::string kind;
    fields >> kind;
    if (kind == "meta") {
      std::string token;
      while (fields >> token) {
        KeyedU64(token, "last_seq", &last_seq) ||
            KeyedU64(token, "events", &events);
      }
    } else if (kind == "table") {
      std::string name;
      fields >> name;
      TableUsage& table = tables[PercentUnescape(name)];
      std::string token;
      while (fields >> token) {
        KeyedU64(token, "queries", &table.queries) ||
            KeyedU64(token, "rows_scanned", &table.rows_scanned) ||
            KeyedU64(token, "rows_matched", &table.rows_matched) ||
            KeyedU64(token, "last_seq", &table.last_seq);
      }
      ++local.tables;
    } else if (kind == "col") {
      std::string name;
      size_t id = 0;
      fields >> name >> id;
      if (fields.fail()) {
        return Status::Corruption("workload history " + path +
                                  ": malformed col line");
      }
      ColumnUsage& col = tables[PercentUnescape(name)].columns[id];
      std::string token;
      while (fields >> token) {
        KeyedU64(token, "touches", &col.touches) ||
            KeyedU64(token, "predicates", &col.predicates) ||
            KeyedU64(token, "last_seq", &col.last_seq);
      }
      ++local.columns;
    } else {
      return Status::Corruption("workload history " + path +
                                ": unknown record '" + kind + "'");
    }
  }
  if (first) {
    return Status::Corruption("workload history " + path + ": empty file");
  }

  MutexLock lock(mu_);
  tables_ = std::move(tables);
  last_seq_ = last_seq;
  events_observed_ = events;
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Result<uint64_t> WorkloadHistory::ReplayLog(const std::string& log_path) {
  QueryLog::LoadStats stats;
  std::vector<QueryLogEvent> events;
  SCANRAW_ASSIGN_OR_RETURN(events, QueryLog::ReadAll(log_path, &stats));
  const uint64_t floor = last_seq();
  uint64_t folded = 0;
  for (const QueryLogEvent& event : events) {
    if (event.seq <= floor) continue;
    Observe(event);
    ++folded;
  }
  return folded;
}

std::string WorkloadHistory::Summary() const {
  MutexLock lock(mu_);
  std::string out = "workload history: " + std::to_string(tables_.size()) +
                    " tables, " + std::to_string(events_observed_) +
                    " events, last seq " + std::to_string(last_seq_) + "\n";
  char line[256];
  for (const auto& [name, table] : tables_) {
    std::snprintf(line, sizeof(line),
                  "  %s: %llu queries, selectivity %.3f\n", name.c_str(),
                  static_cast<unsigned long long>(table.queries),
                  table.Selectivity());
    out += line;
    for (const auto& [id, col] : table.columns) {
      std::snprintf(line, sizeof(line),
                    "    col %zu: touches=%llu predicates=%llu last_seq=%llu\n",
                    id, static_cast<unsigned long long>(col.touches),
                    static_cast<unsigned long long>(col.predicates),
                    static_cast<unsigned long long>(col.last_seq));
      out += line;
    }
  }
  return out;
}

}  // namespace obs
}  // namespace scanraw
