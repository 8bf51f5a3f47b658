#include "obs/explain.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "common/string_util.h"

namespace scanraw {
namespace obs {

void ExplainReport::FillFromProfile(const SpanProfiler::Report& report) {
  wall_seconds = static_cast<double>(report.wall_nanos) * 1e-9;
  threads_accounted = report.distinct_threads;
  busy_seconds_total = static_cast<double>(report.busy_nanos_total) * 1e-9;
  blocked_seconds_total =
      static_cast<double>(report.blocked_nanos_total) * 1e-9;
  idle_seconds_total =
      std::max(0.0, wall_seconds * static_cast<double>(threads_accounted) -
                        busy_seconds_total - blocked_seconds_total);
  critical_stage = std::string(StageName(report.critical_stage));
  critical_seconds = static_cast<double>(report.critical_covered_nanos) * 1e-9;
  critical_fraction = report.critical_fraction;
  spans_dropped = report.spans_dropped;

  stages.clear();
  for (size_t s = 0; s < kNumStages; ++s) {
    const SpanProfiler::StageStats& st = report.stages[s];
    if (st.spans == 0) continue;
    ExplainStage stage;
    stage.name = std::string(StageName(static_cast<Stage>(s)));
    stage.busy_seconds = static_cast<double>(st.busy_nanos) * 1e-9;
    stage.covered_seconds = static_cast<double>(st.covered_nanos) * 1e-9;
    stage.spans = st.spans;
    stage.threads = st.threads;
    stage.is_wait = StageIsWait(static_cast<Stage>(s));
    stages.push_back(std::move(stage));
  }
}

std::string ExplainReport::ToText() const {
  std::string out;
  out += "EXPLAIN ANALYZE  table=" + table + "  policy=" + policy + "\n";
  out += "  wall " + StringPrintf("%.4f", wall_seconds) + " s, " +
         std::to_string(workers) + " workers, " +
         std::to_string(threads_accounted) + " threads accounted\n";

  // Stage table.
  char line[200];
  std::snprintf(line, sizeof(line), "  %-14s %10s %10s %7s %8s %7s\n",
                "stage", "busy(s)", "wall(s)", "spans", "threads", "share");
  out += line;
  for (const ExplainStage& s : stages) {
    const double share =
        wall_seconds > 0 ? 100.0 * s.covered_seconds / wall_seconds : 0.0;
    std::snprintf(line, sizeof(line),
                  "  %-14s %10.4f %10.4f %7llu %8zu %6.1f%%%s\n",
                  s.name.c_str(), s.busy_seconds, s.covered_seconds,
                  static_cast<unsigned long long>(s.spans), s.threads, share,
                  s.is_wait ? "  (blocked)" : "");
    out += line;
  }
  out += "  accounting: busy " + StringPrintf("%.4f", busy_seconds_total) +
         " s + blocked " + StringPrintf("%.4f", blocked_seconds_total) + " s + idle " +
         StringPrintf("%.4f", idle_seconds_total) + " s = wall x threads\n";
  out += "  critical path: " + critical_stage + " (" +
         StringPrintf("%.4f", critical_seconds) + " s, " +
         StringPrintf("%.1f", 100.0 * critical_fraction) + "% of wall)\n";
  out += "  chunks: cache=" + std::to_string(chunks_from_cache) +
         " db=" + std::to_string(chunks_from_db) + " raw=" + std::to_string(chunks_from_raw) +
         " skipped=" + std::to_string(chunks_skipped) +
         " written=" + std::to_string(chunks_written) + "\n";
  out += "  speculative: triggers=" + std::to_string(speculative_triggers) +
         " read-blocked=" + std::to_string(read_blocked_events) +
         " bytes-written=" + std::to_string(bytes_written) + " paid-off=" +
         (speculation_paid_off ? "yes" : "no") + "\n";
  if (bytes_written > 0 || advisor_used) {
    out += "  write budget: useful-bytes=" + std::to_string(useful_bytes_written) +
           " efficiency=" + StringPrintf("%.1f", 100.0 * WriteEfficiency()) + "%\n";
  }
  out += "  tokenize: ranges=" + std::to_string(tokenize_ranges) +
         " misspeculations=" + std::to_string(tokenize_misspeculations) +
         " repair-bytes=" + std::to_string(tokenize_repair_bytes) +
         " bytes=" + std::to_string(bytes_tokenized) + "\n";
  if (advisor_used) {
    out += "  " + (advisor_note.empty() ? std::string("advisor: (no note)")
                                        : advisor_note) +
           "\n";
  }
  out += "  chunk cache: hits=" + std::to_string(cache_hits) +
         " misses=" + std::to_string(cache_misses) + " rate=" +
         StringPrintf("%.1f", 100.0 * HitRate(cache_hits, cache_misses)) + "%\n";
  out += "  positional map: hits=" + std::to_string(posmap_hits) +
         " misses=" + std::to_string(posmap_misses) +
         " posmap-disk=" + std::to_string(posmap_disk_hits) + " rate=" +
         StringPrintf("%.1f", 100.0 * HitRate(posmap_hits, posmap_misses)) + "%\n";
  out += "  loaded: " + StringPrintf("%.1f", 100.0 * loaded_fraction_before) +
         "% -> " + StringPrintf("%.1f", 100.0 * loaded_fraction_after) + "%\n";
  if (spans_dropped > 0) {
    out += "  (" + std::to_string(spans_dropped) +
           " spans dropped by the profiler cap; busy totals still include "
           "them)\n";
  }
  return out;
}

std::string ExplainReport::ToJson() const {
  std::string out = "{";
  out += "\"table\":\"" + JsonEscape(table) + "\"";
  out += ",\"policy\":\"" + JsonEscape(policy) + "\"";
  out += ",\"wall_seconds\":" + StringPrintf("%.9g", wall_seconds);
  out += ",\"workers\":" + std::to_string(workers);
  out += ",\"threads_accounted\":" + std::to_string(threads_accounted);
  out += ",\"stages\":[";
  bool first = true;
  for (const ExplainStage& s : stages) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(s.name) + "\"";
    out += ",\"busy_seconds\":" + StringPrintf("%.9g", s.busy_seconds);
    out += ",\"covered_seconds\":" + StringPrintf("%.9g", s.covered_seconds);
    out += ",\"spans\":" + std::to_string(s.spans);
    out += ",\"threads\":" + std::to_string(s.threads);
    out += ",\"is_wait\":" + std::string(s.is_wait ? "true" : "false");
    out += "}";
  }
  out += "]";
  out += ",\"critical_path\":{\"stage\":\"" + JsonEscape(critical_stage) +
         "\",\"covered_seconds\":" + StringPrintf("%.9g", critical_seconds) +
         ",\"fraction_of_wall\":" + StringPrintf("%.9g", critical_fraction) + "}";
  out += ",\"busy_seconds_total\":" + StringPrintf("%.9g", busy_seconds_total);
  out += ",\"blocked_seconds_total\":" + StringPrintf("%.9g", blocked_seconds_total);
  out += ",\"idle_seconds_total\":" + StringPrintf("%.9g", idle_seconds_total);
  out += ",\"chunks\":{\"from_cache\":" + std::to_string(chunks_from_cache) +
         ",\"from_db\":" + std::to_string(chunks_from_db) +
         ",\"from_raw\":" + std::to_string(chunks_from_raw) +
         ",\"skipped\":" + std::to_string(chunks_skipped) +
         ",\"written\":" + std::to_string(chunks_written) + "}";
  out += ",\"speculative\":{\"triggers\":" + std::to_string(speculative_triggers) +
         ",\"read_blocked_events\":" + std::to_string(read_blocked_events) +
         ",\"bytes_written\":" + std::to_string(bytes_written) +
         ",\"useful_bytes_written\":" + std::to_string(useful_bytes_written) +
         ",\"write_efficiency\":" + StringPrintf("%.9g", WriteEfficiency()) +
         ",\"paid_off\":" + (speculation_paid_off ? "true" : "false") + "}";
  out += ",\"tokenize\":{\"ranges\":" + std::to_string(tokenize_ranges) +
         ",\"misspeculations\":" + std::to_string(tokenize_misspeculations) +
         ",\"repair_bytes\":" + std::to_string(tokenize_repair_bytes) +
         ",\"bytes\":" + std::to_string(bytes_tokenized) + "}";
  out += ",\"advisor\":{\"used\":" +
         std::string(advisor_used ? "true" : "false") + ",\"note\":\"" +
         JsonEscape(advisor_note) + "\"}";
  out += ",\"chunk_cache\":{\"hits\":" + std::to_string(cache_hits) +
         ",\"misses\":" + std::to_string(cache_misses) + ",\"hit_rate\":" +
         StringPrintf("%.9g", HitRate(cache_hits, cache_misses)) + "}";
  out += ",\"positional_map\":{\"hits\":" + std::to_string(posmap_hits) +
         ",\"misses\":" + std::to_string(posmap_misses) +
         ",\"disk_hits\":" + std::to_string(posmap_disk_hits) + ",\"hit_rate\":" +
         StringPrintf("%.9g", HitRate(posmap_hits, posmap_misses)) + "}";
  out += ",\"loaded_fraction_before\":" + StringPrintf("%.9g", loaded_fraction_before);
  out += ",\"loaded_fraction_after\":" + StringPrintf("%.9g", loaded_fraction_after);
  out += ",\"spans_dropped\":" + std::to_string(spans_dropped);
  out += "}";
  return out;
}

}  // namespace obs
}  // namespace scanraw
