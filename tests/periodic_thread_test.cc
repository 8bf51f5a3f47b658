// Tests for obs::PeriodicThread, the one background loop of the
// observability plane: a tick on Start, one per interval, and exactly one
// final tick per object on Stop. The ticks used here are the ones SCANRAW
// runs: a resource-log sample (the §3.3 sampler) and a progress report.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/periodic_thread.h"
#include "obs/progress.h"
#include "obs/resource_sampler.h"

namespace scanraw {
namespace obs {
namespace {

TEST(PeriodicThreadTest, TakesStartAndStopSamples) {
  ResourceLog log(64);
  std::atomic<int> probes{0};
  PeriodicThread sampler(std::chrono::milliseconds(1000), [&] {
    probes.fetch_add(1);
    log.Append(ResourceSample());
  });  // interval longer than the test
  sampler.Start();
  EXPECT_EQ(probes.load(), 1);  // the Start tick ran on the caller
  sampler.Stop();
  // One immediate sample on Start, one final on Stop.
  EXPECT_GE(probes.load(), 2);
  EXPECT_GE(log.size(), 2u);
  sampler.Stop();  // idempotent
}

// Stop() right after Start() must not wait out the interval: the loop
// checks for a stop before it blocks, so the wake-up cannot be lost.
TEST(PeriodicThreadTest, StopRightAfterStartReturnsPromptly) {
  for (int round = 0; round < 3; ++round) {
    ResourceLog log(16);
    PeriodicThread sampler(std::chrono::seconds(5),
                           [&log] { log.Append(ResourceSample()); });
    const auto start = std::chrono::steady_clock::now();
    sampler.Start();
    sampler.Stop();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
    EXPECT_EQ(log.size(), 2u);  // the Start probe and the final one
  }
}

TEST(PeriodicThreadTest, PeriodicSampling) {
  ResourceLog log(1024);
  PeriodicThread sampler(std::chrono::milliseconds(1),
                         [&log] { log.Append(ResourceSample()); });
  sampler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.Stop();
  // 30ms at a 1ms period: demand well below the theoretical 30 to keep the
  // test robust on loaded machines.
  EXPECT_GE(log.size(), 5u);
}

TEST(PeriodicThreadTest, StopWithoutStartStillRecordsFinalProbe) {
  ResourceLog log(16);
  std::atomic<int> probes{0};
  PeriodicThread sampler(std::chrono::milliseconds(1000), [&] {
    probes.fetch_add(1);
    log.Append(ResourceSample());
  });
  // A query can finish before its sampler is ever started; the series must
  // still get its one settled-end-state sample.
  sampler.Stop();
  EXPECT_EQ(probes.load(), 1);
  EXPECT_EQ(log.size(), 1u);
  sampler.Stop();  // the final probe is exactly-once
  EXPECT_EQ(probes.load(), 1);
  EXPECT_EQ(log.size(), 1u);
  sampler.Start();  // a stopped thread stays stopped
  EXPECT_EQ(probes.load(), 1);
}

TEST(PeriodicThreadTest, FinalProbeIsExactlyOnceAcrossStops) {
  ResourceLog log(16);
  std::atomic<int> probes{0};
  {
    PeriodicThread sampler(std::chrono::milliseconds(1000), [&] {
      probes.fetch_add(1);
      log.Append(ResourceSample());
    });
    sampler.Start();
    sampler.Stop();
    EXPECT_EQ(probes.load(), 2);  // start sample + final sample
    sampler.Stop();
    sampler.Stop();
    EXPECT_EQ(probes.load(), 2);
  }  // the destructor's Stop() is a no-op too
  EXPECT_EQ(probes.load(), 2);
}

TEST(PeriodicThreadTest, EmitsFirstAndFinalReports) {
  ProgressTracker tracker;
  int calls = 0;
  PeriodicThread reporter(
      std::chrono::milliseconds(10'000),  // interval far longer than the test
      [&] {
        tracker.Snapshot();
        ++calls;
      });
  reporter.Start();
  reporter.Stop();
  EXPECT_EQ(calls, 2);  // one at Start, one at Stop
}

TEST(PeriodicThreadTest, FinalCallbackReportsCompletion) {
  ProgressTracker tracker(/*bytes_total=*/100);
  tracker.AddBytes(100);
  Mutex mu;
  std::vector<QueryProgress> reports;
  PeriodicThread reporter(std::chrono::milliseconds(1000), [&] {
    const QueryProgress p = tracker.Snapshot();
    MutexLock lock(mu);
    reports.push_back(p);
  });
  reporter.Start();
  tracker.MarkComplete();  // what the pipeline does after a clean drain
  reporter.Stop();
  MutexLock lock(mu);
  ASSERT_GE(reports.size(), 2u);  // one on Start, one final on Stop
  EXPECT_TRUE(reports.back().complete);
  EXPECT_DOUBLE_EQ(reports.back().fraction, 1.0);
}

}  // namespace
}  // namespace obs
}  // namespace scanraw
