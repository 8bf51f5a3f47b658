#include "tools/bench_compare_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>

#include "common/json.h"

namespace scanraw {

Result<BenchTable> ParseBenchJson(std::string_view json) {
  JsonReader r(json);
  BenchTable table;
  auto read_strings = [&r](std::vector<std::string>* out) {
    out->clear();
    return r.ReadArray([&] { return r.Read(&out->emplace_back()); });
  };
  const bool ok = r.ReadObject([&](const std::string& key) {
    if (key == "bench") return r.Read(&table.name);
    if (key == "headers") return read_strings(&table.headers);
    if (key == "rows") {
      table.rows.clear();
      return r.ReadArray(
          [&] { return read_strings(&table.rows.emplace_back()); });
    }
    return r.SkipValue();  // nested tables, metrics dumps, ...
  });
  if (!ok || !r.AtEnd()) {
    return Status::InvalidArgument("bench artifact: malformed JSON near byte " +
                                   std::to_string(r.pos()));
  }
  if (table.headers.empty()) {
    return Status::InvalidArgument("bench artifact: no headers");
  }
  return table;
}

namespace {

bool ParseNumber(const std::string& cell, double* out) {
  if (cell.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (end == cell.c_str() || end == nullptr) return false;
  // Reject trailing junk other than a unit-free suffix of spaces or '%'.
  while (*end == ' ' || *end == '%') ++end;
  if (*end != '\0') return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace

BenchComparison CompareBenchTables(const BenchTable& baseline,
                                   const BenchTable& candidate,
                                   double threshold_pct) {
  BenchComparison cmp;

  // Rows sharing a key match by occurrence: the n-th baseline row with a
  // key against the n-th candidate row with that key.
  std::map<std::string, std::deque<const std::vector<std::string>*>>
      candidate_rows;
  for (const auto& row : candidate.rows) {
    if (!row.empty()) candidate_rows[row[0]].push_back(&row);
  }
  std::map<std::string, size_t> candidate_cols;
  for (size_t i = 0; i < candidate.headers.size(); ++i) {
    candidate_cols[candidate.headers[i]] = i;
  }

  for (const auto& row : baseline.rows) {
    if (row.empty()) continue;
    auto row_it = candidate_rows.find(row[0]);
    if (row_it == candidate_rows.end() || row_it->second.empty()) {
      cmp.unmatched.push_back("row \"" + row[0] + "\" missing in candidate");
      continue;
    }
    const std::vector<std::string>& cand_row = *row_it->second.front();
    row_it->second.pop_front();
    for (size_t c = 1; c < row.size() && c < baseline.headers.size(); ++c) {
      auto col_it = candidate_cols.find(baseline.headers[c]);
      if (col_it == candidate_cols.end() ||
          col_it->second >= cand_row.size()) {
        continue;
      }
      double base = 0, cand = 0;
      if (!ParseNumber(row[c], &base) ||
          !ParseNumber(cand_row[col_it->second], &cand)) {
        continue;
      }
      BenchDelta delta;
      delta.row_key = row[0];
      delta.column = baseline.headers[c];
      delta.baseline = base;
      delta.candidate = cand;
      if (base != 0.0) {
        delta.delta_pct = 100.0 * (cand - base) / base;
      } else {
        delta.delta_pct = cand == 0.0 ? 0.0 : 100.0;
      }
      delta.regressed = delta.delta_pct > threshold_pct;
      cmp.deltas.push_back(std::move(delta));
    }
  }
  for (const auto& [key, rows] : candidate_rows) {
    for (size_t i = 0; i < rows.size(); ++i) {
      cmp.unmatched.push_back("row \"" + key + "\" missing in baseline");
    }
  }
  std::sort(cmp.deltas.begin(), cmp.deltas.end(),
            [](const BenchDelta& a, const BenchDelta& b) {
              return a.delta_pct > b.delta_pct;
            });
  return cmp;
}

std::string BenchComparison::ToText() const {
  std::string out;
  char line[200];
  std::snprintf(line, sizeof(line), "%-16s %-16s %12s %12s %9s\n", "row",
                "column", "baseline", "candidate", "delta");
  out += line;
  for (const BenchDelta& d : deltas) {
    std::snprintf(line, sizeof(line), "%-16s %-16s %12.4g %12.4g %+8.1f%%%s\n",
                  d.row_key.c_str(), d.column.c_str(), d.baseline, d.candidate,
                  d.delta_pct, d.regressed ? "  REGRESSION" : "");
    out += line;
  }
  for (const std::string& u : unmatched) {
    out += "! " + u + "\n";
  }
  return out;
}

}  // namespace scanraw
