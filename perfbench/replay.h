// Per-layer replay for the traced run: calls each layer's public entry
// points one at a time over the workload's own file and chunk layout, in
// spans, and turns the spans into per-layer samples.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "pipeline/thread_pool.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

using Samples = std::map<std::string, std::vector<double>>;

// One pass over the file, chunk by chunk: READ, record scan, TOKENIZE
// (sequential full and narrow, parallel at 1 thread and on `pool`), PARSE,
// engine Consume, chunk serde, storage write/sync/read, and the posmap
// sidecar decode. Appends samples named as in BENCHMARK.json to `out` and
// checks the replayed engine's answers against the oracle. Returns the
// CPU the full query's own path (read, tokenize, parse, consume) took, the
// numerator of trace.layer_coverage.
scanraw::Result<double> ReplayPass(const Workload& w, const std::string& dir,
                                   scanraw::ThreadPool* pool,
                                   SpanStore* spans, int session,
                                   Samples* out);

// Round trips of `pool->num_workers()` empty tasks through Submit and
// WaitIdle, one sample (microseconds) each.
void ReplayPoolRoundTrips(scanraw::ThreadPool* pool, int reps,
                          SpanStore* spans, int session, Samples* out);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
