// Resource-advice sampling (§3.3): a background thread periodically probes
// the live pipeline (buffer occupancy, busy workers, cache fill, disk
// arbiter busy time) and appends a time-series sample including the
// scheduler's resource Advice state (kNeedMoreCpu / kIoBound /
// kEngineBound). The series makes speculative-trigger decisions auditable
// after the fact and feeds the CLI's --metrics=json export.
#ifndef SCANRAW_OBS_RESOURCE_SAMPLER_H_
#define SCANRAW_OBS_RESOURCE_SAMPLER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace scanraw {
namespace obs {

// The §3.3 resource advice states.
enum class Advice : uint8_t {
  // Every worker busy and the text buffer full: "additional CPUs are
  // needed in order to cope with the I/O throughput".
  kNeedMoreCpu,
  // Workers starved and buffers empty: the disk is the bottleneck.
  kIoBound,
  // The engine is not draining the output buffer.
  kEngineBound,
  kBalanced,
};

inline constexpr size_t kNumAdvice = 4;

// Stable lowercase-hyphen name for an advice state ("need-more-cpu", ...).
std::string_view AdviceName(Advice advice);

// One probe of the live pipeline.
struct ResourceSample {
  int64_t ts_nanos = 0;
  Advice advice = Advice::kBalanced;
  size_t text_buffer_size = 0;
  size_t text_buffer_capacity = 0;
  size_t position_buffer_size = 0;
  size_t position_buffer_capacity = 0;
  size_t output_buffer_size = 0;
  size_t output_buffer_capacity = 0;
  size_t busy_workers = 0;
  size_t num_workers = 0;
  size_t cache_size = 0;
  size_t cache_capacity = 0;
  int64_t disk_reader_busy_nanos = 0;
  int64_t disk_writer_busy_nanos = 0;
};

// Classifies a sample's buffer and worker fields into an advice state.
Advice ComputeAdvice(const ResourceSample& sample);

// Bounded, thread-safe sample store shared by every sampler attached to the
// same telemetry sink. Keeps the most recent `capacity` samples.
class ResourceLog {
 public:
  explicit ResourceLog(size_t capacity = 4096) : capacity_(capacity) {}

  void Append(ResourceSample sample) EXCLUDES(mu_);
  std::vector<ResourceSample> Snapshot() const EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);
  uint64_t total_appended() const EXCLUDES(mu_);

  // JSON array of samples; timestamps become microseconds relative to the
  // first sample.
  std::string ToJson() const;

 private:
  const size_t capacity_;
  mutable Mutex mu_{LockRank::kResourceLog, "ResourceLog.mu"};
  std::vector<ResourceSample> ring_ GUARDED_BY(mu_);
  uint64_t next_ GUARDED_BY(mu_) = 0;
};

// Periodically invokes `probe` on a dedicated thread and appends the result
// to `log`. Takes one sample immediately on Start and a final one on Stop,
// so even sub-interval queries leave a visible series.
class ResourceSampler {
 public:
  using Probe = std::function<ResourceSample()>;

  ResourceSampler(ResourceLog* log, Probe probe,
                  std::chrono::milliseconds interval);
  ~ResourceSampler();
  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  void Start() EXCLUDES(mu_);
  // Joins the thread and records the final sample. The final sample is
  // emitted exactly once per sampler, even when Start was never called or
  // the sampling interval never elapsed. Idempotent; the destructor calls
  // it. The probe must stay valid until Stop returns.
  void Stop() EXCLUDES(mu_);

  bool running() const EXCLUDES(mu_);

 private:
  void Loop() EXCLUDES(mu_);

  ResourceLog* const log_;
  const Probe probe_;
  const std::chrono::milliseconds interval_;

  mutable Mutex mu_{LockRank::kResourceSampler, "ResourceSampler.mu"};
  CondVar cv_;
  // Started under mu_ in Start, joined lock-free in Stop after stop_ flips.
  std::thread thread_;
  bool stop_ GUARDED_BY(mu_) = false;
  bool started_ GUARDED_BY(mu_) = false;
  bool final_emitted_ GUARDED_BY(mu_) = false;
};

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_RESOURCE_SAMPLER_H_
