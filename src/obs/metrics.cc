#include "obs/metrics.h"

#include <algorithm>
#include <bit>

#include "common/json.h"
#include "common/string_util.h"

namespace scanraw {
namespace obs {

namespace {

// Inclusive value range covered by bucket b (see Histogram docs).
void BucketBounds(size_t b, uint64_t* lo, uint64_t* hi) {
  if (b == 0) {
    *lo = 0;
    *hi = 0;
    return;
  }
  *lo = uint64_t{1} << (b - 1);
  *hi = (b == 64) ? UINT64_MAX : (uint64_t{1} << b) - 1;
}


}  // namespace

void Histogram::Record(uint64_t value) {
  const size_t bucket = static_cast<size_t>(std::bit_width(value));
  buckets_[bucket < kNumBuckets ? bucket : kNumBuckets - 1].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::min() const {
  uint64_t v = min_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0 : v;
}

double Histogram::Quantile(double q) const {
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based.
  const uint64_t target =
      static_cast<uint64_t>(q * static_cast<double>(total - 1)) + 1;
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    if (counts[b] == 0) continue;
    if (cumulative + counts[b] >= target) {
      uint64_t lo, hi;
      BucketBounds(b, &lo, &hi);
      const double within =
          static_cast<double>(target - cumulative) /
          static_cast<double>(counts[b]);
      double estimate = static_cast<double>(lo) +
                        within * static_cast<double>(hi - lo);
      // Never report outside the observed range.
      estimate = std::max(estimate, static_cast<double>(min()));
      estimate = std::min(estimate, static_cast<double>(max()));
      return estimate;
    }
    cumulative += counts[b];
  }
  return static_cast<double>(max());
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramRow row;
    row.name = name;
    row.count = h->count();
    row.sum = h->sum();
    row.min = h->min();
    row.max = h->max();
    row.p50 = h->Quantile(0.50);
    row.p95 = h->Quantile(0.95);
    row.p99 = h->Quantile(0.99);
    snap.histograms.push_back(std::move(row));
  }
  return snap;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [_, c] : counters_) c->Reset();
  for (auto& [_, g] : gauges_) g->Reset();
  for (auto& [_, h] : histograms_) h->Reset();
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":{";
    out += "\"count\":" + std::to_string(h->count());
    out += ",\"sum\":" + std::to_string(h->sum());
    out += ",\"min\":" + std::to_string(h->min());
    out += ",\"max\":" + std::to_string(h->max());
    out += ",\"mean\":" + StringPrintf("%.6g", h->mean());
    out += ",\"p50\":" + StringPrintf("%.6g", h->Quantile(0.50));
    out += ",\"p95\":" + StringPrintf("%.6g", h->Quantile(0.95));
    out += ",\"p99\":" + StringPrintf("%.6g", h->Quantile(0.99));
    out += "}";
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::ToText() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += name + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out += name + " " + std::to_string(g->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += name + "{count=" + std::to_string(h->count()) +
           ",mean=" + StringPrintf("%.6g", h->mean()) +
           ",p50=" + StringPrintf("%.6g", h->Quantile(0.50)) +
           ",p95=" + StringPrintf("%.6g", h->Quantile(0.95)) +
           ",p99=" + StringPrintf("%.6g", h->Quantile(0.99)) +
           ",max=" + std::to_string(h->max()) + "}\n";
  }
  return out;
}

}  // namespace obs
}  // namespace scanraw
