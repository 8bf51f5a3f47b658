#include "spans.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

int64_t ClockNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t WallNanos() { return ClockNanos(CLOCK_MONOTONIC); }
int64_t ThreadCpuNanos() { return ClockNanos(CLOCK_THREAD_CPUTIME_ID); }

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

int SpanStore::Begin(std::string name, int session) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.session = session;
  s.cpu_ns = ThreadCpuNanos();
  s.start_ns = WallNanos();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanStore::End(int id) {
  Span& s = spans_[id];
  s.end_ns = WallNanos();
  s.cpu_ns = ThreadCpuNanos() - s.cpu_ns;
  // Spans close innermost first; tolerate a mismatch by unwinding to `id`.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::map<std::string, SpanStore::LayerTotals> SpanStore::Totals() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTotals& t = totals[s.name];
    const int64_t wall = s.end_ns - s.start_ns;
    ++t.count;
    t.wall_s += wall * 1e-9;
    t.self_s += std::max<int64_t>(0, wall - child_ns[i]) * 1e-9;
    t.cpu_s += s.cpu_ns * 1e-9;
  }
  return totals;
}

bool SpanStore::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"session\":%d,\"cpu_us\":%.3f}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.session,
                 (s.start_ns - base) * 1e-3, (s.end_ns - s.start_ns) * 1e-3,
                 i, s.parent, s.session, s.cpu_ns * 1e-3);
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
