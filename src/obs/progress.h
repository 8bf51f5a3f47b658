// Live query progress: a thread-safe tracker of bytes/chunks processed with
// a rolling-window throughput estimate and ETA. Each query with a progress
// callback runs a reporter (a PeriodicThread, obs/periodic_thread.h) that
// hands the callback a Snapshot on a fixed interval, so the CLI can print a
// progress line and benches can log phase timings without polling the
// pipeline themselves. The tracker is clock-injected, so the window
// arithmetic is unit-testable against a VirtualClock.
#ifndef SCANRAW_OBS_PROGRESS_H_
#define SCANRAW_OBS_PROGRESS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "common/clock.h"
#include "common/thread_annotations.h"

namespace scanraw {
namespace obs {

// One point-in-time progress report.
struct QueryProgress {
  double elapsed_seconds = 0;
  uint64_t bytes_processed = 0;
  uint64_t bytes_total = 0;  // 0 = unknown
  uint64_t chunks_delivered = 0;
  uint64_t chunks_total = 0;  // 0 = unknown (discovery scan)
  uint64_t chunks_loaded = 0;  // written to the database so far this query
  // Fraction of bytes_total processed, in [0, 1]; 0 when total unknown.
  double fraction = 0;
  // Rolling throughput over the recent window, bytes/second.
  double throughput_bps = 0;
  // Estimated seconds to completion from the rolling throughput; negative
  // when unknown (no total, or no throughput yet).
  double eta_seconds = -1;
  // The query finished cleanly: fraction is pinned to 1.0 and the ETA to 0,
  // regardless of byte-count rounding or unknown totals. Set only on the
  // reports emitted after ProgressTracker::MarkComplete.
  bool complete = false;

  // "42.3% 12.4 MB/s ETA 3.2s (5/12 chunks)" — the CLI's progress line.
  std::string ToLine() const;
};

// Accumulates progress and computes the rolling estimate. All methods are
// thread-safe; AddBytes/CountChunk are called from pipeline threads and
// Snapshot from the reporter thread.
class ProgressTracker {
 public:
  explicit ProgressTracker(uint64_t bytes_total = 0,
                           const Clock* clock = RealClock::Instance());

  void set_totals(uint64_t bytes_total, uint64_t chunks_total) EXCLUDES(mu_);

  void AddBytes(uint64_t n) {
    bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountChunk() { chunks_.fetch_add(1, std::memory_order_relaxed); }
  void CountLoaded() { loaded_.fetch_add(1, std::memory_order_relaxed); }

  // Marks the query as cleanly finished: every later Snapshot reports
  // fraction 1.0, ETA 0, and complete=true. Called once by the pipeline
  // after a successful drain, before the reporter's final callback, so the
  // last progress line always reads 100% even when totals were estimates.
  void MarkComplete() { complete_.store(true, std::memory_order_release); }

  // Appends a (now, bytes) observation to the rolling window and returns
  // the current estimate. The window keeps ~kWindowSamples recent samples,
  // so the throughput reflects the recent past, not the lifetime average —
  // that is what makes the ETA follow phase changes (e.g. cache-served
  // chunks first, raw conversion after, §3.2.1 delivery order).
  QueryProgress Snapshot() EXCLUDES(mu_);

 private:
  static constexpr size_t kWindowSamples = 16;

  const Clock* const clock_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> chunks_{0};
  std::atomic<uint64_t> loaded_{0};
  std::atomic<bool> complete_{false};
  mutable Mutex mu_{LockRank::kProgressTracker, "ProgressTracker.mu"};
  uint64_t bytes_total_ GUARDED_BY(mu_) = 0;
  uint64_t chunks_total_ GUARDED_BY(mu_) = 0;
  int64_t start_nanos_ GUARDED_BY(mu_) = 0;
  // Rolling (timestamp, bytes) samples.
  std::deque<std::pair<int64_t, uint64_t>> window_ GUARDED_BY(mu_);
};

using ProgressCallback = std::function<void(const QueryProgress&)>;

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_PROGRESS_H_
