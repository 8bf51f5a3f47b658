// Stall watchdog: turns silent hangs into diagnosable events. CheckNow()
// samples the StageHeartbeats board; its owner runs it every
// check_interval_ms() (the ScanRawManager's PeriodicThread tick). A stage
// that has threads inside it (active > 0) whose beat counter stops moving
// for a whole window is declared stalled — the watchdog logs a structured
// report, dumps the flight recorder (so the post-mortem shows what every
// thread was last doing), and optionally aborts the process. Progress
// resets the episode; a stage only re-alarms after it has moved again and
// stalled again, so one wedged query produces one report, not one per tick.
#ifndef SCANRAW_OBS_WATCHDOG_H_
#define SCANRAW_OBS_WATCHDOG_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "obs/heartbeat.h"

namespace scanraw {
namespace obs {

struct WatchdogOptions {
  // No-progress window before a stage is declared stalled.
  int64_t window_ms = 5000;
  // Crash-style abort after reporting. Off by default: a resident server
  // wants the report and the dump, not a restart loop.
  bool abort_on_stall = false;
  // Flight-recorder dump destination on stall. Empty = the
  // SCANRAW_FLIGHT_DUMP env var; if that is unset too, dump to stderr.
  std::string flight_dump_path;
  // Injectable for tests.
  const Clock* clock = RealClock::Instance();
};

class Watchdog {
 public:
  struct StallReport {
    Stage stage = Stage::kRead;
    int64_t ts_nanos = 0;
    int64_t stalled_ms = 0;   // how long the stage had made no progress
    uint64_t beats = 0;       // beat count frozen at this value
    int64_t active = 0;       // threads stuck inside the stage
    // Per-thread held-lock stacks at report time (lockdebug snapshot);
    // empty outside SCANRAW_LOCK_DEBUG builds. A stall is usually a thread
    // wedged under a lock — this names the lock without a debugger.
    std::string held_locks;
  };

  Watchdog(StageHeartbeats* heartbeats, WatchdogOptions options);
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // One sampling pass (tests drive it with a VirtualClock; the owner's
  // periodic tick calls it every check_interval_ms()).
  void CheckNow() EXCLUDES(mu_);

  uint64_t stalls_detected() const {
    return stalls_.load(std::memory_order_relaxed);
  }
  std::vector<StallReport> Reports() const EXCLUDES(mu_);

  int64_t window_ms() const { return options_.window_ms; }
  // Heartbeat sampling cadence: a quarter window, so alarm latency stays
  // well under 2x the window even when the stall starts right after a check.
  int64_t check_interval_ms() const {
    return std::max<int64_t>(1, options_.window_ms / 4);
  }

 private:
  void ReportStall(const StallReport& report) REQUIRES(mu_);

  StageHeartbeats* const heartbeats_;
  const WatchdogOptions options_;

  std::atomic<uint64_t> stalls_{0};

  mutable Mutex mu_{LockRank::kWatchdog, "Watchdog.mu"};

  struct StageState {
    uint64_t last_beats = 0;
    int64_t no_progress_since_nanos = 0;  // 0 = progressing
    bool alarmed = false;  // suppress re-alarm until progress resumes
  };
  StageState stages_[kNumStages] GUARDED_BY(mu_);  // by Stage
  std::vector<StallReport> reports_ GUARDED_BY(mu_);  // bounded
};

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_WATCHDOG_H_
