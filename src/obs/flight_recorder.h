// Flight recorder: the session's one event store. An always-on,
// fixed-size, per-thread ring buffer of recent pipeline events — stage
// events with their durations, and scheduler instants — dumped when the
// process is about to die (crash handler, FaultKillPoint) or on demand
// (`--flight-dump`), and exported as a Chrome trace (`--trace-out`). After
// an injected or real crash, the dump shows the last thing every pipeline
// thread was doing; a trace holds each thread's last kRingEvents events.
//
// Record-path contract (enforced by scanraw-lint's flight-record-path rule
// and exercised under TSan): Record* functions take no locks and perform
// no allocation or IO — each event is five relaxed atomic stores into a
// pre-sized ring claimed per thread with a single CAS. Concurrent dumps
// and snapshots read the same atomics; an event being written meanwhile
// may appear torn (fields from two events), which is acceptable for a
// crash artifact or a trace and is why the slots are atomics (keeps TSan
// clean) rather than plain memory.
//
// Deliberately independent of io/: the dump must work when the io layer is
// the thing that failed (and io/fault_injection.cc calls into the dump
// right before _exit), so output goes through raw write(2).
#ifndef SCANRAW_OBS_FLIGHT_RECORDER_H_
#define SCANRAW_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stage.h"

namespace scanraw {
namespace obs {

enum class FlightEvent : uint8_t {
  kNone = 0,
  kQueryBegin,
  kQueryEnd,
  kStage,  // a StageScope event; the Stage rides in the packed word
  kDeliver,
  kSpeculativeTrigger,
  kCacheEvict,
  kKillPoint,
  kError,
  kReadBlocked,     // READ blocked on a full text buffer (a = chunk)
  kSafeguardFlush,  // end-of-scan safeguard flush (§4)
};

const char* FlightEventName(FlightEvent event);

class FlightRecorder {
 public:
  static constexpr size_t kNumRings = 64;    // concurrent threads covered
  static constexpr size_t kRingEvents = 256; // recent events kept per ring

  // Process-global recorder (never destroyed). All call sites record here.
  static FlightRecorder* Global();

  // Appends one event to the calling thread's ring. Lock-free and
  // allocation-free; silently drops (with a counter) if more than
  // kNumRings threads record at once.
  void Record(FlightEvent event, uint64_t a = 0, uint64_t b = 0) {
    RecordPacked(static_cast<uint64_t>(event), a, b);
  }
  // A stage event (a = chunk index, b = bytes or rows handled) that ran
  // for `dur_nanos` up to now; the dump names it after the stage,
  // lower-cased ("read", "tokenize", ...).
  void Record(Stage stage, uint64_t a, uint64_t b,
              ChunkSource source = ChunkSource::kRaw, int64_t dur_nanos = 0) {
    RecordPacked((static_cast<uint64_t>(source) << kSourceShift) |
                     (static_cast<uint64_t>(stage) << 8) |
                     static_cast<uint64_t>(FlightEvent::kStage),
                 a, b, dur_nanos);
  }

  // One decoded event. `ts_nanos` is on the recorder's steady clock; a
  // stage event's is its start.
  struct Event {
    FlightEvent event = FlightEvent::kNone;
    Stage stage = Stage::kRead;  // kStage events
    ChunkSource source = ChunkSource::kRaw;
    uint32_t tid = 0;
    uint64_t ts_nanos = 0;
    uint64_t dur_nanos = 0;
    uint64_t a = 0;
    uint64_t b = 0;
  };

  // Every surviving event of every ring ever claimed, ring by ring, oldest
  // first within a ring. Safe to call while other threads record.
  std::vector<Event> Snapshot() const;

  // Chrome trace_event JSON of Snapshot(): stage events become complete
  // ("X") events named by StageName with chunk/source args, every other
  // event an instant ("i") named by FlightEventName. A non-empty `label`
  // becomes a process_name metadata event. Timestamps are microseconds
  // relative to the earliest event; `exported`, when set, receives the
  // number of trace events written.
  std::string ToChromeTraceJson(std::string_view label,
                                size_t* exported = nullptr) const;

  // Writes a human-readable dump of every non-empty ring to `fd` using raw
  // write(2). Safe to call while other threads record.
  void DumpTo(int fd) const;

  // DumpTo an opened/created file (0644, truncated); false if open fails.
  bool DumpToFile(const char* path) const;

  // Where DumpOnCrash writes: a file path, or stderr when unset. Copied
  // into a fixed buffer (no allocation at crash time).
  void SetCrashDumpPath(const char* path);

  // Called on the way into _exit (FaultInjector::MaybeKill, crash
  // handlers). Dumps to the configured path or stderr. Async-signal-safe
  // apart from open(2)/write(2).
  void DumpOnCrash() const;

  uint64_t events_recorded() const;
  uint64_t events_dropped() const;
  // Number of rings that have ever been claimed by a thread.
  size_t rings_used() const;

  // Test hook: clears every ring and counter. Not safe concurrently with
  // Record; tests call it between quiesced phases only.
  void ResetForTest();

 private:
  friend struct FlightRecorderTlsHandle;

  // packed = (source << kSourceShift) | (thread_id << 16) | kind, where
  // kind = (stage << 8) | event type.
  static constexpr int kSourceShift = 48;

  struct Slot {
    std::atomic<uint64_t> ts_nanos{0};
    std::atomic<uint64_t> packed{0};
    std::atomic<uint64_t> dur_nanos{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
  };

  struct Ring {
    std::atomic<bool> in_use{false};        // claimed by a live thread
    std::atomic<uint64_t> ever_claimed{0};  // sticky: kept for the dump
    std::atomic<uint64_t> next{0};          // events recorded (mod = slot)
    Slot slots[kRingEvents];
  };

  FlightRecorder() = default;

  // `kind` is the packed word without the thread id.
  void RecordPacked(uint64_t kind, uint64_t a, uint64_t b,
                    int64_t dur_nanos = 0);

  // Reads one slot (allocation-free, so the crash dump can use it).
  static Event Decode(const Slot& slot);

  Ring* ClaimRing();
  void ReleaseRing(Ring* ring);

  Ring rings_[kNumRings];
  std::atomic<uint64_t> dropped_{0};
  // Crash-dump destination; fixed storage, written before any crash.
  char crash_path_[512] = {0};
  std::atomic<bool> crash_path_set_{false};
};

// Convenience for pipeline call sites.
inline void FlightRecord(FlightEvent event, uint64_t a = 0, uint64_t b = 0) {
  FlightRecorder::Global()->Record(event, a, b);
}
inline void FlightRecord(Stage stage, uint64_t a, uint64_t b,
                         ChunkSource source = ChunkSource::kRaw,
                         int64_t dur_nanos = 0) {
  FlightRecorder::Global()->Record(stage, a, b, source, dur_nanos);
}

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_FLIGHT_RECORDER_H_
