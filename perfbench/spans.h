// In-memory span store for the traced run. Spans are recorded only around
// the benchmark's own calls into the program's public functions (spans
// inside the program are not this tool's business), kept in memory, and
// written out once when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

int64_t WallNanos();        // steady clock
int64_t ThreadCpuNanos();   // CLOCK_THREAD_CPUTIME_ID of the calling thread
double ProcessCpuSeconds(); // getrusage(RUSAGE_SELF), user + sys

struct Span {
  std::string name;  // "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;  // calling thread's CPU over the span
  int parent = -1;     // index into the store, -1 for a root
  int session = 0;
};

// Single-threaded: only the client thread records.
class SpanStore {
 public:
  // Opens a span whose parent is the innermost open span.
  int Begin(std::string name, int session);
  void End(int id);
  const Span& span(int id) const { return spans_[id]; }

  struct LayerTotals {
    uint64_t count = 0;
    double wall_s = 0;
    double self_s = 0;  // wall minus the time direct children cover
    double cpu_s = 0;
  };
  std::map<std::string, LayerTotals> Totals() const;

  // Chrome trace_event JSON: one "X" event per span, ids in args.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span that does nothing when the store is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanStore* store, std::string name, int session)
      : store_(store),
        id_(store == nullptr ? -1 : store->Begin(std::move(name), session)) {}
  ~ScopedSpan() {
    if (store_ != nullptr) store_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanStore* store_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
