#include "obs/log.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "common/json.h"
#include "io/file.h"

namespace scanraw {
namespace obs {

namespace {

constexpr int64_t kMicrosPerToken = 1'000'000;

}  // namespace

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "UNKNOWN";
}

bool ParseLogLevel(std::string_view text, LogLevel* out) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower += static_cast<char>(
        c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  }
  if (lower == "debug") {
    *out = LogLevel::kDebug;
  } else if (lower == "info") {
    *out = LogLevel::kInfo;
  } else if (lower == "warn" || lower == "warning") {
    *out = LogLevel::kWarn;
  } else if (lower == "error") {
    *out = LogLevel::kError;
  } else if (lower == "off" || lower == "none") {
    *out = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

Logger::Logger() : threshold_(static_cast<int>(LogLevel::kInfo)) {
  const char* env = std::getenv("SCANRAW_LOG_LEVEL");
  LogLevel level;
  if (env != nullptr && ParseLogLevel(env, &level)) {
    threshold_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
}

Logger::~Logger() { CloseJsonlSink(); }

Logger* Logger::Global() {
  // Leaked singleton: log sites may fire during static destruction.
  static Logger* logger = new Logger();
  return logger;
}

void Logger::SetRateLimit(double per_second, double burst) {
  MutexLock lock(mu_);
  rate_per_second_ = per_second;
  burst_ = burst < 1.0 ? 1.0 : burst;
}

Status Logger::OpenJsonlSink(const std::string& path) {
  auto file = WritableFile::OpenForAppend(path);
  if (!file.ok()) return file.status();
  MutexLock lock(mu_);
  sink_ = std::move(*file);
  return Status::OK();
}

void Logger::CloseJsonlSink() {
  std::unique_ptr<WritableFile> dying;
  {
    MutexLock lock(mu_);
    dying = std::move(sink_);
  }
  if (dying != nullptr) {
    // Best-effort flush; a failing log sink must not fail the caller.
    Status s = dying->Flush();
    (void)s;
  }
}

bool Logger::Admit(LogSite* site, LogLevel level, int64_t now_nanos,
                   uint64_t* newly_suppressed) {
  *newly_suppressed = 0;
  if (level == LogLevel::kError) return true;  // errors always pass
  if (rate_per_second_ <= 0.0) return true;    // limiting disabled
  // Token bucket in micro-tokens. Members are atomics for defined cross-
  // thread access, but all arithmetic happens under mu_.
  const int64_t cap_micros =
      static_cast<int64_t>(burst_ * kMicrosPerToken);
  int64_t tokens = site->tokens_micros.load(std::memory_order_relaxed);
  if (tokens < 0) {
    tokens = cap_micros;  // first use: full bucket
    site->last_refill_nanos.store(now_nanos, std::memory_order_relaxed);
  } else {
    const int64_t last =
        site->last_refill_nanos.load(std::memory_order_relaxed);
    const int64_t elapsed = now_nanos > last ? now_nanos - last : 0;
    const double refill =
        rate_per_second_ * static_cast<double>(elapsed) * 1e-9;
    tokens += static_cast<int64_t>(refill * kMicrosPerToken);
    if (tokens > cap_micros) tokens = cap_micros;
    site->last_refill_nanos.store(now_nanos, std::memory_order_relaxed);
  }
  if (tokens < kMicrosPerToken) {
    site->tokens_micros.store(tokens, std::memory_order_relaxed);
    *newly_suppressed =
        site->suppressed.fetch_add(1, std::memory_order_relaxed) + 1;
    return false;
  }
  site->tokens_micros.store(tokens - kMicrosPerToken,
                            std::memory_order_relaxed);
  return true;
}

void Logger::Log(LogSite* site, LogLevel level, const char* format, ...) {
  if (!ShouldLog(level) || level == LogLevel::kOff) return;

  char message[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(message, sizeof(message), format, args);
  va_end(args);

  const int64_t now_nanos = RealClock::Instance()->NowNanos();

  // `suppressed` carries how many lines this site dropped since it last got
  // through, so bursts are visible in the stream that survives them.
  uint64_t suppressed_before = 0;
  {
    MutexLock lock(mu_);
    uint64_t newly_suppressed = 0;
    if (!Admit(site, level, now_nanos, &newly_suppressed)) {
      lines_suppressed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    suppressed_before = site->suppressed.exchange(0, std::memory_order_relaxed);

    if (sink_ != nullptr) {
      std::string line;
      line.reserve(256);
      line += "{\"ts_nanos\":" + std::to_string(now_nanos);
      line += ",\"level\":\"";
      line += LogLevelName(level);
      line += "\",\"file\":\"" + JsonEscape(site->file) + "\"";
      line += ",\"line\":" + std::to_string(site->line);
      if (suppressed_before > 0) {
        line += ",\"suppressed\":" + std::to_string(suppressed_before);
      }
      line += ",\"msg\":\"" + JsonEscape(message) + "\"}\n";
      // Best effort: a broken sink must not take the pipeline down, and
      // reporting it through the logger would recurse.
      Status append = sink_->Append(line);
      if (append.ok()) append = sink_->Flush();
      (void)append;
    }
  }

  if (stderr_enabled_.load(std::memory_order_relaxed)) {
    // The one sanctioned direct stderr write in src/ (lint-exempt): this is
    // the logger's terminal sink.
    const char* base = std::strrchr(site->file, '/');
    base = base != nullptr ? base + 1 : site->file;
    if (suppressed_before > 0) {
      std::fprintf(stderr, "[%s %s:%d] (+%llu suppressed) %s\n",
                   std::string(LogLevelName(level)).c_str(), base,
                   site->line,
                   static_cast<unsigned long long>(suppressed_before),
                   message);
    } else {
      std::fprintf(stderr, "[%s %s:%d] %s\n",
                   std::string(LogLevelName(level)).c_str(), base,
                   site->line, message);
    }
  }
  lines_emitted_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace scanraw
