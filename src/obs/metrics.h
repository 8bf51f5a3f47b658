// Metrics registry: named counters, gauges, and log-bucketed latency
// histograms backing the SCANRAW profiling hooks ("special function calls to
// harness detailed profiling data", §5). Designed to be lock-cheap on the
// hot path: callers resolve a metric once (one mutex acquisition in the
// registry) and then update it through plain relaxed atomics. Metric objects
// are never destroyed while the registry lives, so cached pointers stay
// valid for the registry's lifetime.
#ifndef SCANRAW_OBS_METRICS_H_
#define SCANRAW_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace scanraw {
namespace obs {

// Monotonic event count.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time level (queue depth, busy workers, ...). Add-based updates
// compose across instances sharing one gauge: the value is the live sum.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log-bucketed histogram for latency-like values (nanoseconds). Bucket b
// collects values whose bit width is b, i.e. [2^(b-1), 2^b); quantiles are
// estimated by linear interpolation inside the winning bucket, so the
// relative error is bounded by the bucket ratio (2x). Recording is a few
// relaxed atomic adds — safe and cheap from any number of threads.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const;
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  // Approximate quantile (q in [0, 1]) from the bucket counts.
  double Quantile(double q) const;

  void Reset() EXCLUDES(mu_);

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

// Point-in-time copy of every registered metric, for exporters that render
// outside the registry lock (the /metrics endpoint, the CLI snapshots).
struct MetricsSnapshot {
  struct HistogramRow {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramRow> histograms;
};

// Named metric store. Get* registers on first use and returns a stable
// pointer; names are hierarchical dot-separated strings
// ("scanraw.stage.read_nanos"). Thread-safe; the mutex guards only the name
// maps, never the metric updates themselves.
class MetricsRegistry {
 public:
  Counter* GetCounter(std::string_view name) EXCLUDES(mu_);
  Gauge* GetGauge(std::string_view name) EXCLUDES(mu_);
  Histogram* GetHistogram(std::string_view name) EXCLUDES(mu_);

  // Sorted (std::map order) copy of every metric's current value.
  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

  // Zeroes every registered metric (registration survives). Callers must
  // ensure no concurrent Reset of the same metric elsewhere; concurrent
  // recording merely lands in the fresh epoch.
  void Reset();

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  // min, max, mean, p50, p95, p99}}}.
  std::string ToJson() const EXCLUDES(mu_);
  // One metric per line, prometheus-flavored flat text.
  std::string ToText() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_{LockRank::kMetrics, "MetricsRegistry.mu"};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_METRICS_H_
