// Stage events: the one stage taxonomy and the one RAII event every
// chunk-stage site emits ("special function calls to harness detailed
// profiling data", §5). A StageScope reads the clock once at each end and
// fans the interval out to whichever sinks are bound: the query's span
// store (EXPLAIN, critical path), the operator's per-stage totals and their
// registry histograms, the flight recorder (crash dumps, Chrome trace), and
// the watchdog heartbeats. Every consumer of per-stage numbers therefore
// reads the same events.
#ifndef SCANRAW_OBS_STAGE_H_
#define SCANRAW_OBS_STAGE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/clock.h"

namespace scanraw {
namespace obs {

class Histogram;
class StageHeartbeats;

// Pipeline stages. The first group is busy work; the wait group records
// time a stage spent blocked, split so critical-path attribution can
// distinguish contention-bound waits (READ and WRITE arbitrating one disk)
// from disk-bound waits (the bandwidth limiter emulating the device).
enum class Stage : uint8_t {
  kRead = 0,
  kTokenize = 1,
  kParse = 2,
  kWrite = 3,
  kCacheHit = 4,  // delivering a binary chunk straight from the cache
  kHeapScan = 5,  // database-resident scan (retired-operator path)
  kEngine = 6,    // execution-engine consume time
  // Wait categories (blocked, not busy).
  kDiskWait = 7,      // blocked in the DiskArbiter (READ/WRITE contention)
  kThrottleWait = 8,  // blocked in the RateLimiter (emulated device busy)
};

inline constexpr size_t kNumStages = 9;
inline constexpr size_t kFirstWaitStage =
    static_cast<size_t>(Stage::kDiskWait);

// Small dense id for the current OS thread, stable for the thread's
// lifetime (first call assigns the next free id).
uint32_t CurrentThreadId();

// Upper-case name ("READ", "CACHE_HIT", ...), shared by EXPLAIN, the query
// log, Chrome traces, /metrics and the watchdog.
std::string_view StageName(Stage stage);

// True for the blocked (wait) categories.
inline bool StageIsWait(Stage stage) {
  return static_cast<size_t>(stage) >= kFirstWaitStage;
}

// The loops the stall watchdog and /metrics liveness cover.
inline constexpr std::array<Stage, 5> kWatchedStages = {
    Stage::kRead, Stage::kTokenize, Stage::kParse, Stage::kWrite,
    Stage::kDiskWait};

// Where a chunk's bytes came from (§3.2.1 delivery order).
enum class ChunkSource : uint8_t { kRaw = 0, kCache = 1, kDb = 2 };

std::string_view ChunkSourceName(ChunkSource source);

// Receiver of timed stage spans. SpanProfiler is the query-scoped store;
// ScanRaw forwards its WRITE thread's spans to whichever query is active.
class SpanSink {
 public:
  virtual void RecordSpan(Stage stage, uint32_t tid, int64_t start_nanos,
                          int64_t dur_nanos) = 0;

 protected:
  ~SpanSink() = default;
};

// Per-stage event totals of one operator: events and nanoseconds per
// stage, each event also recorded into the stage's registry histogram
// (nanoseconds per chunk) once one is bound. nanos / chunks is the
// per-chunk stage time of Figure 5.
class StageTotals {
 public:
  // Call before the pipeline runs; the hot path reads it unsynchronized.
  void BindHistogram(Stage stage, Histogram* histogram) {
    slots_[static_cast<size_t>(stage)].histogram = histogram;
  }
  void Add(Stage stage, int64_t nanos);

  uint64_t chunks(Stage stage) const {
    return slots_[static_cast<size_t>(stage)].chunks.load(
        std::memory_order_relaxed);
  }
  int64_t nanos(Stage stage) const {
    return slots_[static_cast<size_t>(stage)].nanos.load(
        std::memory_order_relaxed);
  }

  // Zeroes every total and bound histogram. Single-threaded: quiesce the
  // stages first.
  void Reset();

 private:
  struct Slot {
    std::atomic<uint64_t> chunks{0};
    std::atomic<int64_t> nanos{0};
    Histogram* histogram = nullptr;
  };
  std::array<Slot, kNumStages> slots_;
};

// The sinks one stage event reaches; null (or false) members are skipped.
struct StageSinks {
  SpanSink* spans = nullptr;
  StageTotals* totals = nullptr;
  StageHeartbeats* heartbeats = nullptr;
  bool flight = false;  // the process-global flight recorder
  const Clock* clock = RealClock::Instance();
};

// RAII stage event. The chunk index and the flight recorder's detail
// argument (bytes or rows handled) are often known only mid-scope. Cancel()
// turns the scope into a non-event for every sink — e.g. the EOF probe at
// the end of a discovery scan, which reads no chunk. The heartbeat sink
// beats the stage's own slot, except that a cache hit beats READ's.
class StageScope {
 public:
  StageScope(const StageSinks& sinks, Stage stage,
             ChunkSource source = ChunkSource::kRaw, uint64_t chunk = 0)
      : sinks_(sinks),
        stage_(stage),
        source_(source),
        chunk_(chunk),
        start_nanos_(sinks.clock->NowNanos()) {}
  ~StageScope();
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  void set_chunk(uint64_t chunk) { chunk_ = chunk; }
  void set_detail(uint64_t detail) { detail_ = detail; }
  void Cancel() { cancelled_ = true; }

 private:
  const StageSinks sinks_;
  const Stage stage_;
  const ChunkSource source_;
  uint64_t chunk_;
  uint64_t detail_ = 0;
  const int64_t start_nanos_;
  bool cancelled_ = false;
};

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_STAGE_H_
