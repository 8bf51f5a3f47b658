// Tests for the obs/ building blocks in isolation: counters, gauges,
// log-bucketed histograms (quantiles, reset, JSON), the flight recorder's
// snapshot and Chrome trace export, the stage event and its sinks, and the
// resource log.

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "obs/flight_recorder.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/resource_sampler.h"
#include "obs/span_profiler.h"
#include "obs/stage.h"
#include "obs/telemetry.h"

namespace scanraw {
namespace obs {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, DeltaUpdatesCompose) {
  Gauge g;
  g.Add(5);
  g.Add(-2);
  EXPECT_EQ(g.value(), 3);
  g.Set(10);
  EXPECT_EQ(g.value(), 10);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  for (uint64_t v : {10, 20, 30, 40}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 100u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 40u);
  EXPECT_DOUBLE_EQ(h.mean(), 25.0);
}

TEST(HistogramTest, QuantilesAreOrderedAndBounded) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  const double p50 = h.Quantile(0.5);
  const double p95 = h.Quantile(0.95);
  const double p99 = h.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log-bucket interpolation is within a 2x bucket of the true rank.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 500.0);
  EXPECT_LE(p99, 1000.0);
  // Quantiles never leave the observed range.
  EXPECT_GE(h.Quantile(0.0), 1.0);
  EXPECT_LE(h.Quantile(1.0), 1000.0);
}

TEST(HistogramTest, SingleValueQuantiles) {
  Histogram h;
  h.Record(777);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 777.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 777.0);
}

TEST(HistogramTest, ZeroValueIsCounted) {
  Histogram h;
  h.Record(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, Reset) {
  Histogram h;
  h.Record(123);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, ExtremeValuesSurviveBucketing) {
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), std::numeric_limits<uint64_t>::max());
  // Quantiles stay within the observed range even at the bucket extremes,
  // and remain monotone across the probe points.
  double prev = 0.0;
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, 0.0) << "q=" << q;
    EXPECT_LE(v, static_cast<double>(std::numeric_limits<uint64_t>::max()))
        << "q=" << q;
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(HistogramTest, QuantilesMonotoneOnSkewedData) {
  Histogram h;
  // Heavily skewed: many tiny values, one huge outlier.
  for (int i = 0; i < 1000; ++i) h.Record(1);
  h.Record(std::numeric_limits<uint64_t>::max());
  double prev = 0.0;
  for (int i = 0; i <= 100; ++i) {
    const double v = h.Quantile(i / 100.0);
    EXPECT_GE(v, prev) << "q=" << i / 100.0;
    prev = v;
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.0);
}

TEST(HistogramTest, ConcurrentRecording) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), static_cast<uint64_t>(kPerThread));
}

TEST(MetricsRegistryTest, StablePointersByName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x.count");
  Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("y.count"), a);
  // Same name in different metric families is distinct storage.
  EXPECT_NE(static_cast<void*>(registry.GetGauge("x.count")),
            static_cast<void*>(a));
}

TEST(MetricsRegistryTest, ResetZeroesEverything) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(7);
  registry.GetGauge("g")->Set(-3);
  registry.GetHistogram("h")->Record(99);
  registry.Reset();
  EXPECT_EQ(registry.GetCounter("c")->value(), 0u);
  EXPECT_EQ(registry.GetGauge("g")->value(), 0);
  EXPECT_EQ(registry.GetHistogram("h")->count(), 0u);
}

TEST(MetricsRegistryTest, JsonExportContainsAllFamilies) {
  MetricsRegistry registry;
  registry.GetCounter("events.total")->Add(3);
  registry.GetGauge("queue.depth")->Set(2);
  registry.GetHistogram("latency")->Record(1000);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"events.total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"queue.depth\":2"), std::string::npos);
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(JsonEscapeTest, EscapesControlAndQuotes) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
}

// The flight recorder is the session's trace store: Snapshot() decodes
// every ring and ToChromeTraceJson() exports it. The recorder is
// process-global, so each test starts from a reset one.
class FlightTraceTest : public testing::Test {
 protected:
  void SetUp() override { FlightRecorder::Global()->ResetForTest(); }
};

TEST_F(FlightTraceTest, RecordsSpansInOrder) {
  FlightRecord(Stage::kRead, 0, 0, ChunkSource::kRaw, 50);
  FlightRecord(Stage::kTokenize, 0, 0, ChunkSource::kRaw, 70);
  const auto events = FlightRecorder::Global()->Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].event, FlightEvent::kStage);
  EXPECT_EQ(events[0].stage, Stage::kRead);
  EXPECT_EQ(events[0].dur_nanos, 50u);
  EXPECT_EQ(events[1].stage, Stage::kTokenize);
  EXPECT_EQ(events[1].dur_nanos, 70u);
  EXPECT_EQ(events[0].tid, CurrentThreadId());
  EXPECT_EQ(FlightRecorder::Global()->events_recorded(), 2u);
  EXPECT_EQ(FlightRecorder::Global()->events_dropped(), 0u);
}

TEST_F(FlightTraceTest, SnapshotKeepsEachThreadsNewestEvents) {
  constexpr uint64_t kEvents = FlightRecorder::kRingEvents + 6;
  for (uint64_t i = 0; i < kEvents; ++i) {
    FlightRecord(Stage::kParse, i, 0, ChunkSource::kRaw, 1);
  }
  const auto events = FlightRecorder::Global()->Snapshot();
  ASSERT_EQ(events.size(), FlightRecorder::kRingEvents);
  EXPECT_EQ(events.front().a, 6u);
  EXPECT_EQ(events.back().a, kEvents - 1);
  EXPECT_EQ(FlightRecorder::Global()->events_recorded(), kEvents);
}

TEST_F(FlightTraceTest, ChromeExportShape) {
  FlightRecord(Stage::kRead, 3, 0, ChunkSource::kDb, 2000);
  FlightRecord(FlightEvent::kSpeculativeTrigger, 3);
  size_t exported = 0;
  const std::string json =
      FlightRecorder::Global()->ToChromeTraceJson("", &exported);
  EXPECT_EQ(exported, 2u);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"READ\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"spec-trigger\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2,"), std::string::npos);
  EXPECT_NE(json.find("\"chunk\":3,\"source\":\"db\""), std::string::npos);
  // Loadable as a top-level array (trailing newline allowed).
  EXPECT_NE(json.find_last_of(']'), std::string::npos);
}

TEST_F(FlightTraceTest, LabelIsEscapedInChromeExport) {
  FlightRecord(Stage::kRead, 0, 0, ChunkSource::kRaw, 50);

  // Labels flow from user input (table names, file paths); quotes,
  // backslashes and control characters must not corrupt the JSON.
  const std::string json = FlightRecorder::Global()->ToChromeTraceJson(
      "scanraw:\"quoted\\table\"\n\ttab");
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("scanraw:\\\"quoted\\\\table\\\"\\n\\ttab"),
            std::string::npos);
  // No raw control characters survive anywhere in the export.
  for (char c : json) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control char in JSON: " << static_cast<int>(c);
  }
}

TEST_F(FlightTraceTest, EmptyLabelOmitsMetadataEvent) {
  FlightRecord(Stage::kRead, 0, 0, ChunkSource::kRaw, 50);
  const std::string json = FlightRecorder::Global()->ToChromeTraceJson("");
  EXPECT_EQ(json.find("\"ph\":\"M\""), std::string::npos);
}

TEST(JsonEscapeTest, ControlCharactersUseUnicodeEscapes) {
  // Control characters without shorthand escapes use \u00XX.
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(JsonEscape("a\tb\rc"), "a\\tb\\rc");
  // The empty string round-trips.
  EXPECT_EQ(JsonEscape(""), "");
}

// ------------------------------------------------------- stage events ---

// Every sink a StageScope can feed, bound to one virtual clock.
struct AllSinks {
  VirtualClock clock;
  SpanProfiler profiler{&clock};
  Histogram parse_latency;
  StageTotals totals;
  StageHeartbeats heartbeats;

  AllSinks() { totals.BindHistogram(Stage::kParse, &parse_latency); }

  StageSinks Bound() {
    return {.spans = &profiler,
            .totals = &totals,
            .heartbeats = &heartbeats,
            .flight = true,
            .clock = &clock};
  }
};

std::string FlightDump() {
  const std::string path = testing::TempDir() + "/obs_test_flight.txt";
  EXPECT_TRUE(FlightRecorder::Global()->DumpToFile(path.c_str()));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(StageScopeTest, OneEventReachesEveryBoundSink) {
  AllSinks sinks;
  FlightRecorder::Global()->ResetForTest();
  {
    StageScope stage(sinks.Bound(), Stage::kParse, ChunkSource::kDb, 0);
    sinks.clock.AdvanceNanos(250);
    stage.set_chunk(7);
    stage.set_detail(4242);
  }

  const auto report = sinks.profiler.Aggregate();
  const auto& parse = report.stages[static_cast<size_t>(Stage::kParse)];
  EXPECT_EQ(parse.spans, 1u);
  EXPECT_EQ(parse.busy_nanos, 250);

  const auto events = FlightRecorder::Global()->Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].event, FlightEvent::kStage);
  EXPECT_EQ(events[0].stage, Stage::kParse);
  EXPECT_EQ(events[0].source, ChunkSource::kDb);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[0].b, 4242u);
  EXPECT_EQ(events[0].dur_nanos, 250u);

  EXPECT_EQ(sinks.totals.chunks(Stage::kParse), 1u);
  EXPECT_EQ(sinks.totals.nanos(Stage::kParse), 250);
  EXPECT_EQ(sinks.parse_latency.count(), 1u);
  EXPECT_EQ(sinks.parse_latency.sum(), 250u);

  EXPECT_EQ(sinks.heartbeats.beats(Stage::kParse), 1u);
  EXPECT_EQ(sinks.heartbeats.active(Stage::kParse), 0);

  EXPECT_EQ(FlightRecorder::Global()->events_recorded(), 1u);
  const std::string dump = FlightDump();
  EXPECT_NE(dump.find("parse        a=7 b=4242"), std::string::npos) << dump;
}

TEST(StageScopeTest, NullSinksAreSkipped) {
  const uint64_t flight_before = FlightRecorder::Global()->events_recorded();
  { StageScope nothing({}, Stage::kRead); }  // must not crash

  // Only the totals bound: nothing else hears of the event.
  AllSinks sinks;
  { StageScope stage({.totals = &sinks.totals}, Stage::kParse); }
  EXPECT_EQ(sinks.totals.chunks(Stage::kParse), 1u);
  EXPECT_EQ(sinks.parse_latency.count(), 1u);  // the totals' own mirror
  const auto report = sinks.profiler.Aggregate();
  EXPECT_EQ(report.stages[static_cast<size_t>(Stage::kParse)].spans, 0u);
  EXPECT_EQ(sinks.heartbeats.beats(Stage::kParse), 0u);
  EXPECT_EQ(FlightRecorder::Global()->events_recorded(), flight_before);
}

TEST(StageScopeTest, CancelSuppressesEverySink) {
  AllSinks sinks;
  const uint64_t flight_before = FlightRecorder::Global()->events_recorded();
  {
    StageScope stage(sinks.Bound(), Stage::kParse);
    sinks.clock.AdvanceNanos(100);
    stage.Cancel();
  }
  const auto report = sinks.profiler.Aggregate();
  EXPECT_EQ(report.stages[static_cast<size_t>(Stage::kParse)].spans, 0u);
  EXPECT_EQ(sinks.totals.chunks(Stage::kParse), 0u);
  EXPECT_EQ(sinks.totals.nanos(Stage::kParse), 0);
  EXPECT_EQ(sinks.parse_latency.count(), 0u);
  EXPECT_EQ(sinks.heartbeats.beats(Stage::kParse), 0u);
  EXPECT_EQ(FlightRecorder::Global()->events_recorded(), flight_before);
}

TEST(StageScopeTest, ConcurrentEventsAddUpExactly) {
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kEvents = 2000;
  SpanProfiler profiler;
  Histogram latency;
  StageTotals totals;
  totals.BindHistogram(Stage::kTokenize, &latency);
  StageHeartbeats heartbeats;
  const StageSinks sinks{.spans = &profiler,
                         .totals = &totals,
                         .heartbeats = &heartbeats,
                         .flight = true};
  FlightRecorder::Global()->ResetForTest();
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sinks, t] {
      for (uint64_t i = 0; i < kEvents; ++i) {
        StageScope stage(sinks, Stage::kTokenize, ChunkSource::kRaw,
                         t * kEvents + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  constexpr uint64_t kTotal = kThreads * kEvents;
  const auto report = profiler.Aggregate();
  const auto& tok = report.stages[static_cast<size_t>(Stage::kTokenize)];
  EXPECT_EQ(tok.spans, kTotal);
  EXPECT_EQ(tok.threads, kThreads);
  EXPECT_EQ(totals.chunks(Stage::kTokenize), kTotal);
  EXPECT_EQ(latency.count(), kTotal);
  EXPECT_EQ(static_cast<uint64_t>(totals.nanos(Stage::kTokenize)),
            latency.sum());
  EXPECT_EQ(static_cast<uint64_t>(tok.busy_nanos), latency.sum());
  EXPECT_EQ(heartbeats.beats(Stage::kTokenize), kTotal);
  EXPECT_EQ(FlightRecorder::Global()->events_recorded(), kTotal);
  EXPECT_EQ(FlightRecorder::Global()->events_dropped(), 0u);
  // The rings keep each thread's newest events, every one intact.
  const auto events = FlightRecorder::Global()->Snapshot();
  EXPECT_GE(events.size(), FlightRecorder::kRingEvents);
  for (const FlightRecorder::Event& e : events) {
    EXPECT_EQ(e.event, FlightEvent::kStage);
    EXPECT_EQ(e.stage, Stage::kTokenize);
    EXPECT_LT(e.a, kTotal);
  }
}

TEST(ResourceLogTest, BoundedRing) {
  ResourceLog log(3);
  for (int i = 0; i < 5; ++i) {
    ResourceSample s;
    s.ts_nanos = i;
    log.Append(std::move(s));
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_appended(), 5u);
  auto samples = log.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples.front().ts_nanos, 2);
  EXPECT_EQ(samples.back().ts_nanos, 4);
}

TEST(ResourceLogTest, JsonIsArrayWithAdvice) {
  ResourceLog log(8);
  ResourceSample s;
  s.ts_nanos = 1000;
  s.advice = Advice::kIoBound;
  log.Append(std::move(s));
  const std::string json = log.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"io-bound\""), std::string::npos);
}

TEST(TelemetryTest, CombinedJsonExport) {
  Telemetry telemetry;
  telemetry.metrics().GetCounter("a")->Add(1);
  ResourceSample s;
  s.advice = Advice::kBalanced;
  telemetry.resources().Append(std::move(s));
  const std::string json = telemetry.ToJson();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"resource_samples\""), std::string::npos);
  EXPECT_NE(json.find("\"advice\":\"balanced\""), std::string::npos);
  // Stage events live in the flight recorder, not in the telemetry export.
  EXPECT_EQ(json.find("trace_events"), std::string::npos);
}

TEST(HistogramTest, EmptyQuantilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.50), 0.0);
  EXPECT_EQ(h.Quantile(0.95), 0.0);
  EXPECT_EQ(h.Quantile(0.99), 0.0);
}

TEST(HistogramTest, SingleSampleEveryQuantile) {
  Histogram h;
  h.Record(4096);  // exactly on a power-of-two bucket boundary
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 4096.0) << "q=" << q;
  }
}

TEST(HistogramTest, BucketBoundaryValuesStayInRange) {
  // Powers of two are the log-bucket edges; quantiles must interpolate
  // within the observed [min, max] and stay monotone across them.
  Histogram h;
  for (int p = 0; p <= 20; ++p) h.Record(1ull << p);
  double prev = 0.0;
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, 1.0) << "q=" << q;
    EXPECT_LE(v, static_cast<double>(1ull << 20)) << "q=" << q;
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  // p50 of 21 power-of-two samples lands near 2^10, within one bucket.
  EXPECT_GE(h.Quantile(0.5), 512.0);
  EXPECT_LE(h.Quantile(0.5), 4096.0);
}

TEST(HistogramTest, TwoBucketBoundaryNeighbors) {
  Histogram h;
  h.Record(1024);  // last value of one bucket's range vs first of the next
  h.Record(1025);
  EXPECT_GE(h.Quantile(0.0), 1024.0);
  EXPECT_LE(h.Quantile(1.0), 1025.0);
  EXPECT_LE(h.Quantile(0.5), 1025.0);
}

TEST(ProgressTrackerTest, MarkCompletePinsTo100Percent) {
  VirtualClock clock;
  ProgressTracker tracker(/*bytes_total=*/1000, &clock);
  tracker.AddBytes(700);  // rounding / estimate error: bytes short of total
  tracker.CountChunk();
  clock.AdvanceNanos(1000000);
  QueryProgress before = tracker.Snapshot();
  EXPECT_FALSE(before.complete);
  EXPECT_LT(before.fraction, 1.0);

  tracker.MarkComplete();
  QueryProgress after = tracker.Snapshot();
  EXPECT_TRUE(after.complete);
  EXPECT_DOUBLE_EQ(after.fraction, 1.0);
  EXPECT_DOUBLE_EQ(after.eta_seconds, 0.0);
}

TEST(ProgressTrackerTest, MarkCompleteCoversUnknownTotals) {
  // Discovery scans never learn a byte total; completion must still pin the
  // final report to 100%.
  VirtualClock clock;
  ProgressTracker tracker(/*bytes_total=*/0, &clock);
  tracker.AddBytes(123);
  EXPECT_DOUBLE_EQ(tracker.Snapshot().fraction, 0.0);
  tracker.MarkComplete();
  QueryProgress p = tracker.Snapshot();
  EXPECT_TRUE(p.complete);
  EXPECT_DOUBLE_EQ(p.fraction, 1.0);
}

TEST(CurrentThreadIdTest, DistinctPerThreadStableWithin) {
  const uint32_t main_id = CurrentThreadId();
  EXPECT_EQ(CurrentThreadId(), main_id);
  uint32_t other_id = main_id;
  std::thread t([&other_id] { other_id = CurrentThreadId(); });
  t.join();
  EXPECT_NE(other_id, main_id);
}

}  // namespace
}  // namespace obs
}  // namespace scanraw
