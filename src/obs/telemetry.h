// Telemetry: the unified observability sink — one metrics registry and one
// resource-advice time-series log. The ScanRawManager owns a Telemetry
// instance and wires every component of the pipeline (ScanRaw stages,
// DiskArbiter, ChunkCache, ThreadPool, StorageManager) into it; the CLI and
// benches export it as JSON or text. Stage events are kept by the
// process-global flight recorder (obs/flight_recorder.h).
#ifndef SCANRAW_OBS_TELEMETRY_H_
#define SCANRAW_OBS_TELEMETRY_H_

#include <string>

#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/resource_sampler.h"
#include "obs/timeseries.h"

namespace scanraw {
namespace obs {

struct TelemetryOptions {
  // Bound on the resource time-series.
  size_t resource_log_capacity = 4096;
  // Points retained per metric time-series ring (see obs/timeseries.h).
  size_t timeseries_ring_capacity = 512;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options = TelemetryOptions())
      : resources_(options.resource_log_capacity),
        timeseries_(TimeSeriesOptions{options.timeseries_ring_capacity,
                                      TimeSeriesOptions().interval_nanos}) {}

  MetricsRegistry& metrics() { return metrics_; }
  ResourceLog& resources() { return resources_; }
  TimeSeries& timeseries() { return timeseries_; }
  StageHeartbeats& heartbeats() { return heartbeats_; }

  // Combined export: {"metrics": <registry>, "resource_samples": [...]}.
  std::string ToJson() const;

  // Human-readable flat dump (metrics text + advice tallies).
  std::string ToText() const;

 private:
  MetricsRegistry metrics_;
  ResourceLog resources_;
  TimeSeries timeseries_;
  StageHeartbeats heartbeats_;
};

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_TELEMETRY_H_
