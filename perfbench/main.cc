// The repository benchmark's measuring program. perfbench/run.py builds it
// and turns its raw samples into the metrics BENCHMARK.json names.
//
//   perfbench --workload raw_cold|spec_sequence|restart_quoted --seed N
//             --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]
//
// --trace 0 runs the workload's closed-loop cycles for S seconds and prints
// end-to-end samples. --trace 1 alternates untraced and traced (EXPLAIN on)
// cycles, then replays each layer's entry points over the same file, and
// prints per-layer samples; spans go to --trace-out. The last stdout line
// is one JSON object.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "replay.h"
#include "sessions.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir;
  std::string trace_out;
  // Child mode: run one cycle over the parent's file, print the process's
  // peak resident set in MB, exit.
  int rss_probe = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") a->workload = v;
    else if (flag == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a->seconds = std::atof(v);
    else if (flag == "--trace") a->trace = std::atoi(v);
    else if (flag == "--workdir") a->workdir = v;
    else if (flag == "--trace-out") a->trace_out = v;
    else if (flag == "--rss-probe") a->rss_probe = std::atoi(v);
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->workdir.empty() &&
         a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

size_t CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

// Peak resident set of a fresh process running one cycle over the same
// file (this binary in --rss-probe mode). A long-lived process's peak
// depends on how earlier cycles left the allocator's arenas, which varies
// from run to run; a fresh process's does not.
double ProbePeakRss(const Args& args) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const std::string seed = std::to_string(args.seed);
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execl("/proc/self/exe", "perfbench", "--workload", args.workload.c_str(),
          "--seed", seed.c_str(), "--seconds", "1", "--trace", "0",
          "--workdir", args.workdir.c_str(), "--rss-probe", "1", nullptr);
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, n);
  close(fds[0]);
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1;
  }
  return std::atof(out.c_str());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double SessionSeconds(const CycleRecord& c) {
  double total = 0;
  for (const SessionRecord& s : c.sessions) total += s.session_s;
  return total;
}

// ---- untraced: end-to-end samples -----------------------------------------

void AddEndToEnd(const Workload& w, const CycleRecord& c, Samples* out) {
  double setup = 0, session = 0, query_time = 0;
  size_t queries = 0;
  for (const SessionRecord& s : c.sessions) {
    setup += s.setup_s;
    session += s.session_s;
    for (const QueryRecord& q : s.queries) {
      query_time += q.wall_s;
      ++queries;
      (*out)["query_s"].push_back(q.wall_s);
      (*out)["query_s." + w.queries[q.query].label].push_back(q.wall_s);
    }
  }
  // A cycle whose set-up failed has no timings; its failures are counted.
  if (queries == 0 || query_time <= 0) return;
  const double bytes = static_cast<double>(w.file_bytes) * queries;
  (*out)["setup_s"].push_back(setup);
  (*out)["session_s"].push_back(session);
  // The first answer after the cycle's latest registration or restart.
  const SessionRecord& latest = c.sessions.back();
  if (!latest.queries.empty()) {
    (*out)["first_query_s"].push_back(latest.queries.front().wall_s);
  }
  (*out)["scan_mb_s"].push_back(bytes * 1e-6 / query_time);
  (*out)["cpu_s_per_gb"].push_back(c.cpu_s / (bytes * 1e-9));
  (*out)["cpu_share_of_session"].push_back(c.cpu_s / session);
}

// ---- traced: per-layer samples from the sessions ---------------------------

void AddSessionCounts(const Workload& w, const CycleRecord& c, Samples* out) {
  uint64_t cache = 0, db = 0, raw = 0, skipped = 0, hits = 0, misses = 0;
  uint64_t written = 0, triggers = 0, useful = 0, bytes_written = 0;
  uint64_t range_skipped = 0, range_queries = 0, stored = 0;
  double retire_at = 0, catalog_load = -1;
  double conversion_s = 0;
  int index = 0;
  for (const SessionRecord& s : c.sessions) {
    stored += s.storage_bytes_written;
    if (s.catalog_load_s >= 0) catalog_load = s.catalog_load_s;
    // Where the sessions run without an emulated disk or never write, the
    // replay measures these instead (replay.cc).
    if (w.disk_bandwidth > 0) {
      (*out)["limiter.wait_s"].push_back(s.limiter_wait_s);
    }
    if (w.options.policy != scanraw::LoadPolicy::kExternalTables) {
      (*out)["arbiter.write_wait_s"].push_back(s.arbiter_write_wait_s);
    }
    (*out)["arbiter.read_wait_s"].push_back(s.arbiter_read_wait_s);
    (*out)["arbiter.write_busy_share"].push_back(s.arbiter_write_busy_s /
                                                 s.session_s);
    for (const QueryRecord& q : s.queries) {
      ++index;
      const scanraw::obs::ExplainReport& e = *q.explain;
      cache += e.chunks_from_cache;
      db += e.chunks_from_db;
      raw += e.chunks_from_raw;
      skipped += e.chunks_skipped;
      hits += e.cache_hits;
      misses += e.cache_misses;
      written += e.chunks_written;
      triggers += e.speculative_triggers;
      useful += e.useful_bytes_written;
      bytes_written += e.bytes_written;
      if (w.queries[q.query].spec.predicate.range.has_value()) {
        range_skipped += e.chunks_skipped;
        ++range_queries;
      }
      if (q.retired_after && retire_at == 0) retire_at = index;
      for (const scanraw::obs::ExplainStage& stage : e.stages) {
        if (stage.name == "TOKENIZE" || stage.name == "PARSE") {
          conversion_s += stage.busy_seconds;
        }
      }
    }
  }
  (*out)["conversion_share_of_session"].push_back(conversion_s /
                                                  SessionSeconds(c));
  // Tokenized bytes and posmap-disk hits after the latest registration or
  // restart: 0 and 1 on restart_quoted.
  uint64_t tokenized = 0, disk_hits = 0, latest_raw = 0;
  const SessionRecord& latest = c.sessions.back();
  for (const QueryRecord& q : latest.queries) {
    tokenized += q.explain->bytes_tokenized;
    disk_hits += q.explain->posmap_disk_hits;
    latest_raw += q.explain->chunks_from_raw;
  }
  const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  (*out)["scanraw.chunks_from_cache"].push_back(cache);
  (*out)["scanraw.chunks_from_db"].push_back(db);
  (*out)["scanraw.chunks_from_raw"].push_back(raw);
  (*out)["scanraw.chunks_skipped"].push_back(skipped);
  (*out)["scanraw.cache_hit_rate"].push_back(ratio(hits, hits + misses));
  (*out)["scanraw.chunks_written"].push_back(written);
  (*out)["scanraw.speculative_triggers"].push_back(triggers);
  // ExplainReport::WriteEfficiency's convention: 1 when nothing was written.
  (*out)["scanraw.useful_write_ratio"].push_back(
      bytes_written == 0 ? 1.0 : ratio(useful, bytes_written));
  (*out)["scanraw.queries_to_retire"].push_back(retire_at);
  (*out)["scanraw.bytes_tokenized_per_raw_byte"].push_back(
      ratio(tokenized, static_cast<double>(w.file_bytes) *
                           latest.queries.size()));
  (*out)["scanraw.posmap_disk_hit_rate"].push_back(ratio(disk_hits, latest_raw));
  (*out)["statistics.skip_ratio"].push_back(
      ratio(range_skipped, static_cast<double>(w.num_chunks) * range_queries));
  (*out)["storage.bytes_per_raw_byte"].push_back(ratio(stored, w.file_bytes));
  if (catalog_load >= 0) (*out)["catalog.load_s"].push_back(catalog_load);
}

// CPU of the cycle's full query when every chunk came from the raw file:
// the denominator of trace.layer_coverage.
double FullRawQueryCpu(const Workload& w, const CycleRecord& c) {
  for (const SessionRecord& s : c.sessions) {
    for (const QueryRecord& q : s.queries) {
      if (q.query == w.full_query && q.from_raw == w.num_chunks) return q.cpu_s;
    }
  }
  return -1;
}

// ---- JSON -----------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out.push_back(ch);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}


// ---- runs -----------------------------------------------------------------

struct RunState {
  Checker checker;
  Samples samples;
  std::map<std::string, int> fingerprints;
  SpanStore spans;
  int cycle_id = 0;
};

// --trace 0: peak-RSS probes, then untraced cycles for `seconds`.
void MeasureEndToEnd(const Args& args, const Workload& w,
                     const RunPaths& paths, RunState* run) {
  constexpr int kRssProbes = 9;
  for (int i = 0; i < kRssProbes; ++i) {
    const double mb = ProbePeakRss(args);
    if (mb <= 0) {
      run->checker.Fail(w.name + ": peak-RSS probe process failed");
      break;
    }
    run->samples["peak_rss_mb"].push_back(mb);
  }
  const int64_t start = WallNanos();
  constexpr int kMinCycles = 5;
  for (int n = 0; n < kMinCycles || (WallNanos() - start) * 1e-9 < args.seconds;
       ++n) {
    const CycleRecord c =
        RunCycle(w, paths, nullptr, run->cycle_id++, &run->checker);
    AddEndToEnd(w, c, &run->samples);
    ++run->fingerprints[c.Fingerprint(w)];
  }
}

// --trace 1: half the time untraced and traced cycles in alternating order,
// so drift hits both sides of trace.overhead_ratio alike; the other half
// layer replay passes over the same file.
void MeasureLayers(const Args& args, const Workload& w, const RunPaths& paths,
                   size_t nproc, RunState* run) {
  const int64_t start = WallNanos();
  const auto elapsed = [&] { return (WallNanos() - start) * 1e-9; };
  constexpr int kMinPairs = 3;
  std::vector<double> full_cpu;
  for (int n = 0; n < kMinPairs || elapsed() < 0.5 * args.seconds; ++n) {
    double plain = 0, traced = 0;
    for (int side = 0; side < 2; ++side) {
      const bool trace_this = (side + n) % 2 == 1;
      const CycleRecord c =
          RunCycle(w, paths, trace_this ? &run->spans : nullptr,
                   run->cycle_id++, &run->checker);
      ++run->fingerprints[c.Fingerprint(w)];
      if (trace_this) {
        traced = SessionSeconds(c);
        AddSessionCounts(w, c, &run->samples);
      } else {
        plain = SessionSeconds(c);
        if (double cpu = FullRawQueryCpu(w, c); cpu > 0) full_cpu.push_back(cpu);
      }
    }
    run->samples["trace.overhead_ratio"].push_back(traced / plain);
  }
  scanraw::ThreadPool pool(w.options.num_workers);
  const double e2e_full_cpu = Median(full_cpu);
  constexpr int kMinPasses = 2;
  for (int n = 0; n < kMinPasses || elapsed() < args.seconds; ++n) {
    auto cpu = ReplayPass(w, args.workdir, &pool, &run->spans, 100000 + n,
                          &run->samples);
    if (!cpu.ok()) {
      ++run->checker.attempted;
      run->checker.Fail(w.name + " replay: " + cpu.status().ToString());
      break;
    }
    if (e2e_full_cpu > 0) {
      run->samples["trace.layer_coverage"].push_back(*cpu / e2e_full_cpu);
    }
  }
  ReplayPoolRoundTrips(&pool, 200, &run->spans, 200000, &run->samples);
  if (nproc < 2) {
    // One CPU cannot show a parallel speedup; a ~1.0x ratio here would only
    // look like evidence.
    run->samples.erase("tokenize.par_speedup");
    run->samples.erase("pool.roundtrip_us");
  }
  if (!args.trace_out.empty() && !run->spans.WriteChromeTrace(args.trace_out)) {
    run->checker.Fail("cannot write " + args.trace_out);
  }
  std::printf("per-layer self time over the traced run (s):\n");
  for (const auto& [name, t] : run->spans.Totals()) {
    std::printf("  %-34s n=%-6llu wall %.4f  self %.4f  cpu %.4f\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                t.wall_s, t.self_s, t.cpu_s);
  }
}

// Machine-readable samples for run.py.
std::string ResultJson(const Args& args, const Workload& w, size_t nproc,
                       const RunState& run) {
  std::string json =
      "{\"workload\":" + JsonString(w.name) +
      ",\"seed\":" + std::to_string(args.seed) +
      ",\"trace\":" + std::to_string(args.trace) +
      ",\"nproc\":" + std::to_string(nproc) +
      ",\"workers\":" + std::to_string(w.options.num_workers) +
      ",\"cycles\":" + std::to_string(run.cycle_id - 1) +
      ",\"attempted\":" + std::to_string(run.checker.attempted) +
      ",\"failed\":" + std::to_string(run.checker.failed) + ",\"failures\":[";
  const auto separate = [&json](bool first) {
    if (!first) json += ',';
  };
  for (size_t i = 0; i < run.checker.messages.size(); ++i) {
    separate(i == 0);
    json += JsonString(run.checker.messages[i]);
  }
  json += "],\"fingerprints\":{";
  bool first = true;
  for (const auto& [fp, count] : run.fingerprints) {
    separate(first);
    json += JsonString(fp) + ":" + std::to_string(count);
    first = false;
  }
  json += "},\"samples\":{";
  first = true;
  for (const auto& [name, values] : run.samples) {
    separate(first);
    json += JsonString(name) + ":[";
    for (size_t i = 0; i < values.size(); ++i) {
      separate(i == 0);
      json += JsonNumber(values[i]);
    }
    json += ']';
    first = false;
  }
  return json + "}}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  const size_t nproc = CpuCount();
  // The client thread gets a core of its own.
  const size_t workers = std::max<size_t>(1, nproc - 1);
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.workdir.c_str());
    return 1;
  }
  auto made = DefineWorkload(args.workload, args.seed, args.workdir, workers);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  Workload& w = *made;
  if (args.rss_probe) {
    // Answers are checked in the parent; only the memory is of interest.
    const RunPaths paths{args.workdir + "/probe.db",
                         args.workdir + "/probe.catalog"};
    Checker unchecked;
    RunCycle(w, paths, nullptr, 0, &unchecked);
    std::printf("%.3f\n", PeakRssMb());
    return 0;
  }
  if (const scanraw::Status s = GenerateData(&w); !s.ok()) {
    std::fprintf(stderr, "data generation failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const RunPaths paths{args.workdir + "/" + w.name + ".db",
                       args.workdir + "/" + w.name + ".catalog"};
  std::printf("workload %s seed %llu: %llu rows, %llu bytes, %llu chunks; "
              "nproc %zu, ScanRaw workers %zu, one client thread\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(w.num_rows),
              static_cast<unsigned long long>(w.file_bytes),
              static_cast<unsigned long long>(w.num_chunks), nproc, workers);

  RunState run;
  // Warm-up: fills the page cache and finishes lazy set-up. Its answers are
  // checked like every other.
  RunCycle(w, paths, nullptr, run.cycle_id++, &run.checker);
  if (args.trace == 0) {
    MeasureEndToEnd(args, w, paths, &run);
  } else {
    MeasureLayers(args, w, paths, nproc, &run);
  }
  for (const std::string& file :
       {w.csv_path, paths.db, args.workdir + "/replay.db",
        args.workdir + "/replay.posmap"}) {
    std::filesystem::remove(file, ec);
  }
  std::printf("%s\n", ResultJson(args, w, nproc, run).c_str());
  return 0;
}
