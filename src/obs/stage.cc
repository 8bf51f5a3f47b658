#include "obs/stage.h"

#include "obs/flight_recorder.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"

namespace scanraw {
namespace obs {

uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next_id{1};
  thread_local uint32_t id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::string_view StageName(Stage stage) {
  static constexpr std::string_view kNames[kNumStages] = {
      "READ",      "TOKENIZE", "PARSE",     "WRITE",        "CACHE_HIT",
      "HEAP_SCAN", "ENGINE",   "DISK_WAIT", "THROTTLE_WAIT"};
  return kNames[static_cast<size_t>(stage)];
}

std::string_view ChunkSourceName(ChunkSource source) {
  static constexpr std::string_view kNames[] = {"raw", "cache", "db"};
  return kNames[static_cast<size_t>(source)];
}

void StageTotals::Add(Stage stage, int64_t nanos) {
  Slot& slot = slots_[static_cast<size_t>(stage)];
  slot.chunks.fetch_add(1, std::memory_order_relaxed);
  slot.nanos.fetch_add(nanos, std::memory_order_relaxed);
  if (slot.histogram != nullptr) {
    slot.histogram->Record(static_cast<uint64_t>(nanos));
  }
}

void StageTotals::Reset() {
  for (Slot& slot : slots_) {
    slot.chunks.store(0, std::memory_order_relaxed);
    slot.nanos.store(0, std::memory_order_relaxed);
    if (slot.histogram != nullptr) slot.histogram->Reset();
  }
}

StageScope::~StageScope() {
  if (cancelled_) return;
  int64_t dur = sinks_.clock->NowNanos() - start_nanos_;
  if (dur < 0) dur = 0;
  if (sinks_.spans != nullptr) {
    sinks_.spans->RecordSpan(stage_, CurrentThreadId(), start_nanos_, dur);
  }
  if (sinks_.totals != nullptr) sinks_.totals->Add(stage_, dur);
  if (sinks_.flight) FlightRecord(stage_, chunk_, detail_, source_, dur);
  if (sinks_.heartbeats != nullptr) {
    // A cache-hit delivery is the READ loop making progress.
    sinks_.heartbeats->Beat(stage_ == Stage::kCacheHit ? Stage::kRead
                                                       : stage_);
  }
}

}  // namespace obs
}  // namespace scanraw
