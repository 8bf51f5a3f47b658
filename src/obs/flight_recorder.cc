#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/json.h"

namespace scanraw {
namespace obs {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// write(2) with the short-write loop; best-effort — a crash dump has
// nowhere to report errors to.
void WriteAll(int fd, const char* data, size_t length) {
  while (length > 0) {
    const ssize_t n = ::write(fd, data, length);
    if (n <= 0) return;
    data += n;
    length -= static_cast<size_t>(n);
  }
}

void WriteLine(int fd, const char* line) { WriteAll(fd, line, strlen(line)); }

// Dump label for an event: the event name, or for a stage event the
// lower-cased stage name.
void KindLabel(const FlightRecorder::Event& e, char* out, size_t size) {
  if (e.event != FlightEvent::kStage) {
    std::snprintf(out, size, "%s", FlightEventName(e.event));
    return;
  }
  const std::string_view name = StageName(e.stage);
  size_t n = 0;
  for (; n < name.size() && n + 1 < size; ++n) {
    out[n] = static_cast<char>(
        std::tolower(static_cast<unsigned char>(name[n])));
  }
  out[n] = '\0';
}

}  // namespace

const char* FlightEventName(FlightEvent event) {
  switch (event) {
    case FlightEvent::kNone: return "none";
    case FlightEvent::kQueryBegin: return "query-begin";
    case FlightEvent::kQueryEnd: return "query-end";
    case FlightEvent::kStage: return "stage";
    case FlightEvent::kDeliver: return "deliver";
    case FlightEvent::kSpeculativeTrigger: return "spec-trigger";
    case FlightEvent::kCacheEvict: return "cache-evict";
    case FlightEvent::kKillPoint: return "kill-point";
    case FlightEvent::kError: return "error";
    case FlightEvent::kReadBlocked: return "read-blocked";
    case FlightEvent::kSafeguardFlush: return "safeguard-flush";
  }
  return "unknown";
}

// Per-thread claim on one ring; the destructor releases the claim (content
// is retained for the dump) when the thread exits.
struct FlightRecorderTlsHandle {
  FlightRecorder::Ring* ring = nullptr;
  FlightRecorder* owner = nullptr;

  ~FlightRecorderTlsHandle() {
    if (ring != nullptr && owner != nullptr) owner->ReleaseRing(ring);
  }
};

namespace {
thread_local FlightRecorderTlsHandle tls_handle;
}  // namespace

FlightRecorder* FlightRecorder::Global() {
  // Leaked singleton: rings must outlive every recording thread, including
  // detached ones running through static destruction. SCANRAW_FLIGHT_DUMP
  // seeds the crash-dump destination; an explicit SetCrashDumpPath (the
  // --flight-dump-on-crash CLI flag) still overrides it later.
  static FlightRecorder* recorder = [] {
    auto* r = new FlightRecorder();
    const char* env = std::getenv("SCANRAW_FLIGHT_DUMP");
    if (env != nullptr && env[0] != '\0') r->SetCrashDumpPath(env);
    return r;
  }();
  return recorder;
}

FlightRecorder::Ring* FlightRecorder::ClaimRing() {
  for (size_t i = 0; i < kNumRings; ++i) {
    bool expected = false;
    if (rings_[i].in_use.compare_exchange_strong(expected, true,
                                                 std::memory_order_acq_rel)) {
      rings_[i].ever_claimed.store(1, std::memory_order_relaxed);
      return &rings_[i];
    }
  }
  return nullptr;
}

void FlightRecorder::ReleaseRing(Ring* ring) {
  ring->in_use.store(false, std::memory_order_release);
}

void FlightRecorder::RecordPacked(uint64_t kind, uint64_t a, uint64_t b,
                                  int64_t dur_nanos) {
  FlightRecorderTlsHandle& handle = tls_handle;
  if (handle.ring == nullptr || handle.owner != this) {
    handle.ring = ClaimRing();
    handle.owner = this;
    if (handle.ring == nullptr) {
      // More live threads than rings; drop rather than contend.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  Ring& ring = *handle.ring;
  const uint64_t index =
      ring.next.fetch_add(1, std::memory_order_relaxed) % kRingEvents;
  Slot& slot = ring.slots[index];
  // Relaxed stores: a dump racing these may see one torn event, which a
  // crash artifact tolerates; atomics keep the race defined (TSan-clean).
  const uint64_t dur = dur_nanos > 0 ? static_cast<uint64_t>(dur_nanos) : 0;
  slot.ts_nanos.store(NowNanos() - dur, std::memory_order_relaxed);
  slot.packed.store((static_cast<uint64_t>(CurrentThreadId()) << 16) | kind,
                    std::memory_order_relaxed);
  slot.dur_nanos.store(dur, std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
}

FlightRecorder::Event FlightRecorder::Decode(const Slot& slot) {
  const uint64_t packed = slot.packed.load(std::memory_order_relaxed);
  Event e;
  e.event = static_cast<FlightEvent>(packed & 0xff);
  e.stage = static_cast<Stage>((packed >> 8) & 0xff);
  e.tid = static_cast<uint32_t>(packed >> 16);  // drops the source bits
  e.source = static_cast<ChunkSource>(packed >> kSourceShift);
  e.ts_nanos = slot.ts_nanos.load(std::memory_order_relaxed);
  e.dur_nanos = slot.dur_nanos.load(std::memory_order_relaxed);
  e.a = slot.a.load(std::memory_order_relaxed);
  e.b = slot.b.load(std::memory_order_relaxed);
  return e;
}

void FlightRecorder::DumpTo(int fd) const {
  char line[256];
  const uint64_t now = NowNanos();
  std::snprintf(line, sizeof(line),
                "=== scanraw flight recorder: %llu events recorded, %llu "
                "dropped, %zu/%zu rings ===\n",
                static_cast<unsigned long long>(events_recorded()),
                static_cast<unsigned long long>(events_dropped()),
                rings_used(), kNumRings);
  WriteLine(fd, line);
  for (size_t r = 0; r < kNumRings; ++r) {
    const Ring& ring = rings_[r];
    if (ring.ever_claimed.load(std::memory_order_relaxed) == 0) continue;
    const uint64_t total = ring.next.load(std::memory_order_acquire);
    if (total == 0) continue;
    const uint64_t count = total < kRingEvents ? total : kRingEvents;
    std::snprintf(line, sizeof(line),
                  "-- ring %zu: %llu events (showing last %llu)\n", r,
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(count));
    WriteLine(fd, line);
    for (uint64_t i = total - count; i < total; ++i) {
      const Event e = Decode(ring.slots[i % kRingEvents]);
      if (e.event == FlightEvent::kNone) continue;
      char label[16];
      KindLabel(e, label, sizeof(label));
      const uint64_t age_us = e.ts_nanos <= now ? (now - e.ts_nanos) / 1000 : 0;
      std::snprintf(line, sizeof(line),
                    "  tid=%llu -%8llu.%03llums %-12s a=%llu b=%llu\n",
                    static_cast<unsigned long long>(e.tid),
                    static_cast<unsigned long long>(age_us / 1000),
                    static_cast<unsigned long long>(age_us % 1000), label,
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b));
      WriteLine(fd, line);
    }
  }
  WriteLine(fd, "=== end flight recorder ===\n");
}

std::vector<FlightRecorder::Event> FlightRecorder::Snapshot() const {
  std::vector<Event> out;
  for (const Ring& ring : rings_) {
    if (ring.ever_claimed.load(std::memory_order_relaxed) == 0) continue;
    const uint64_t total = ring.next.load(std::memory_order_acquire);
    const uint64_t count = total < kRingEvents ? total : kRingEvents;
    for (uint64_t i = total - count; i < total; ++i) {
      const Event e = Decode(ring.slots[i % kRingEvents]);
      if (e.event != FlightEvent::kNone) out.push_back(e);
    }
  }
  return out;
}

std::string FlightRecorder::ToChromeTraceJson(std::string_view label,
                                              size_t* exported) const {
  const std::vector<Event> events = Snapshot();
  uint64_t epoch = UINT64_MAX;
  for (const Event& e : events) epoch = std::min(epoch, e.ts_nanos);
  std::string out = "[";
  if (!label.empty()) {
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
           "{\"name\":\"" +
           JsonEscape(label) + "\"}}";
  }
  for (const Event& e : events) {
    if (out.size() > 1) out += ",\n";
    const bool stage = e.event == FlightEvent::kStage;
    out += "{\"name\":\"";
    out += stage ? StageName(e.stage) : FlightEventName(e.event);
    out += "\",\"cat\":\"scanraw\",\"ph\":\"";
    out += stage ? "X" : "i";
    out += "\",\"ts\":" + std::to_string((e.ts_nanos - epoch) / 1000);
    out += stage ? ",\"dur\":" + std::to_string(e.dur_nanos / 1000)
                 : std::string(",\"s\":\"p\"");
    out += ",\"pid\":1,\"tid\":" + std::to_string(e.tid) + ",\"args\":{";
    if (stage) {
      out += "\"chunk\":" + std::to_string(e.a) + ",\"source\":\"";
      out += ChunkSourceName(e.source);
      out += "\"}}";
    } else {
      out += "\"a\":" + std::to_string(e.a) + ",\"b\":" + std::to_string(e.b) +
             "}}";
    }
  }
  out += "]\n";
  if (exported != nullptr) *exported = events.size();
  return out;
}

bool FlightRecorder::DumpToFile(const char* path) const {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  DumpTo(fd);
  ::close(fd);
  return true;
}

void FlightRecorder::SetCrashDumpPath(const char* path) {
  if (path == nullptr || path[0] == '\0') {
    crash_path_set_.store(false, std::memory_order_release);
    return;
  }
  std::strncpy(crash_path_, path, sizeof(crash_path_) - 1);
  crash_path_[sizeof(crash_path_) - 1] = '\0';
  crash_path_set_.store(true, std::memory_order_release);
}

void FlightRecorder::DumpOnCrash() const {
  if (crash_path_set_.load(std::memory_order_acquire)) {
    if (DumpToFile(crash_path_)) return;
  }
  DumpTo(STDERR_FILENO);
}

uint64_t FlightRecorder::events_recorded() const {
  uint64_t total = 0;
  for (const Ring& ring : rings_) {
    total += ring.next.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t FlightRecorder::events_dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

size_t FlightRecorder::rings_used() const {
  size_t used = 0;
  for (const Ring& ring : rings_) {
    if (ring.ever_claimed.load(std::memory_order_relaxed) != 0) ++used;
  }
  return used;
}

void FlightRecorder::ResetForTest() {
  for (Ring& ring : rings_) {
    ring.next.store(0, std::memory_order_relaxed);
    // Rings released by exited threads stop counting as used; rings still
    // claimed by live threads (their TLS handles point here) stay sticky.
    ring.ever_claimed.store(ring.in_use.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    for (Slot& slot : ring.slots) {
      slot.ts_nanos.store(0, std::memory_order_relaxed);
      slot.packed.store(0, std::memory_order_relaxed);
      slot.dur_nanos.store(0, std::memory_order_relaxed);
      slot.a.store(0, std::memory_order_relaxed);
      slot.b.store(0, std::memory_order_relaxed);
    }
  }
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace scanraw
