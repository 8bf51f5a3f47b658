#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "common/clock.h"
#include "datagen/csv_generator.h"
#include "io/fault_injection.h"
#include "io/file.h"
#include "obs/heartbeat.h"
#include "obs/log.h"
#include "obs/periodic_thread.h"
#include "obs/watchdog.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace {

using obs::PeriodicThread;
using obs::Stage;
using obs::StageHeartbeats;
using obs::Watchdog;
using obs::WatchdogOptions;

constexpr int64_t kMsNanos = 1'000'000;

std::string TestPath(const std::string& suffix) {
  std::string name = testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name();
  return testing::TempDir() + "/watchdog_" + name + "_" + suffix;
}

// Silences the ERROR lines stall reports print; the assertions below read
// the structured reports instead.
class WatchdogTest : public testing::Test {
 protected:
  void SetUp() override {
    obs::Logger::Global()->SetStderrEnabled(false);
  }
  void TearDown() override {
    obs::Logger::Global()->SetStderrEnabled(true);
  }
};

TEST_F(WatchdogTest, DetectsFrozenActiveStage) {
  VirtualClock clock;
  StageHeartbeats hb;
  WatchdogOptions options;
  options.window_ms = 100;
  options.clock = &clock;
  options.flight_dump_path = TestPath("dump.txt");
  Watchdog dog(&hb, options);

  hb.Enter(Stage::kRead);
  dog.CheckNow();  // sees fresh beats: progress
  clock.AdvanceNanos(50 * kMsNanos);
  dog.CheckNow();  // frozen; episode starts here
  EXPECT_EQ(dog.stalls_detected(), 0u);
  clock.AdvanceNanos(99 * kMsNanos);
  dog.CheckNow();  // 99 ms frozen: still under the window
  EXPECT_EQ(dog.stalls_detected(), 0u);
  clock.AdvanceNanos(2 * kMsNanos);
  dog.CheckNow();  // 101 ms frozen: stall
  ASSERT_EQ(dog.stalls_detected(), 1u);

  auto reports = dog.Reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].stage, Stage::kRead);
  EXPECT_GE(reports[0].stalled_ms, 100);
  EXPECT_EQ(reports[0].active, 1);
  // The stall dumped the flight recorder to the requested path.
  EXPECT_TRUE(FileExists(options.flight_dump_path));
  auto dump = ReadFileToString(options.flight_dump_path);
  ASSERT_TRUE(dump.ok());
  EXPECT_FALSE(dump->empty());
  hb.Leave(Stage::kRead);
}

TEST_F(WatchdogTest, IdleStageNeverAlarms) {
  VirtualClock clock;
  StageHeartbeats hb;
  WatchdogOptions options;
  options.window_ms = 10;
  options.clock = &clock;
  options.flight_dump_path = TestPath("dump.txt");
  Watchdog dog(&hb, options);
  // active == 0 throughout: frozen beats mean "nothing to do", not a hang.
  for (int i = 0; i < 20; ++i) {
    clock.AdvanceNanos(10 * kMsNanos);
    dog.CheckNow();
  }
  EXPECT_EQ(dog.stalls_detected(), 0u);
}

TEST_F(WatchdogTest, OneReportPerEpisodeRealarmsAfterProgress) {
  VirtualClock clock;
  StageHeartbeats hb;
  WatchdogOptions options;
  options.window_ms = 100;
  options.clock = &clock;
  options.flight_dump_path = TestPath("dump.txt");
  Watchdog dog(&hb, options);

  hb.Enter(Stage::kParse);
  dog.CheckNow();
  auto stall_once = [&] {
    clock.AdvanceNanos(10 * kMsNanos);
    dog.CheckNow();  // freeze observed; episode starts
    clock.AdvanceNanos(150 * kMsNanos);
    dog.CheckNow();  // alarm
  };
  stall_once();
  EXPECT_EQ(dog.stalls_detected(), 1u);
  // Still wedged: more ticks must not re-report the same episode.
  for (int i = 0; i < 10; ++i) {
    clock.AdvanceNanos(200 * kMsNanos);
    dog.CheckNow();
  }
  EXPECT_EQ(dog.stalls_detected(), 1u);
  // Progress resumes, then the stage wedges again: a new episode alarms.
  hb.Beat(Stage::kParse);
  dog.CheckNow();
  stall_once();
  EXPECT_EQ(dog.stalls_detected(), 2u);
  hb.Leave(Stage::kParse);
}

TEST_F(WatchdogTest, EnvVarSuppliesDumpPathWhenOptionEmpty) {
  const std::string env_path = TestPath("env_dump.txt");
  ASSERT_EQ(setenv("SCANRAW_FLIGHT_DUMP", env_path.c_str(), 1), 0);
  VirtualClock clock;
  StageHeartbeats hb;
  WatchdogOptions options;
  options.window_ms = 50;
  options.clock = &clock;  // flight_dump_path left empty
  Watchdog dog(&hb, options);
  hb.Enter(Stage::kWrite);
  dog.CheckNow();
  clock.AdvanceNanos(10 * kMsNanos);
  dog.CheckNow();
  clock.AdvanceNanos(100 * kMsNanos);
  dog.CheckNow();
  ASSERT_EQ(unsetenv("SCANRAW_FLIGHT_DUMP"), 0);
  ASSERT_EQ(dog.stalls_detected(), 1u);
  EXPECT_TRUE(FileExists(env_path));
  hb.Leave(Stage::kWrite);
}

TEST_F(WatchdogTest, BackgroundThreadAlarmsWithinTwiceTheWindow) {
  StageHeartbeats hb;
  WatchdogOptions options;
  options.window_ms = 50;  // real clock; check interval defaults to 12 ms
  options.flight_dump_path = TestPath("dump.txt");
  Watchdog dog(&hb, options);
  EXPECT_EQ(dog.check_interval_ms(), 12);
  PeriodicThread ticker(std::chrono::milliseconds(dog.check_interval_ms()),
                        [&dog] { dog.CheckNow(); });
  hb.Enter(Stage::kRead);
  ticker.Start();
  const int64_t deadline =
      RealClock::Instance()->NowNanos() + 2 * 50 * kMsNanos + 50 * kMsNanos;
  while (dog.stalls_detected() == 0 &&
         RealClock::Instance()->NowNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ticker.Stop();
  EXPECT_GE(dog.stalls_detected(), 1u);
  hb.Leave(Stage::kRead);
}

// Integration: a real scan whose raw-file reads hang (fault-injected device
// delay) must trip the manager-owned watchdog and leave a flight dump.
class WatchdogScanTest : public WatchdogTest {
 protected:
  static constexpr uint64_t kRows = 1000;
  static constexpr size_t kCols = 4;

  void SetUp() override {
    WatchdogTest::SetUp();
    csv_path_ = TestPath("data.csv");
    CsvSpec spec;
    spec.num_rows = kRows;
    spec.num_columns = kCols;
    spec.seed = 7;
    auto info = GenerateCsvFile(csv_path_, spec);
    ASSERT_TRUE(info.ok());
    info_ = *info;
    schema_ = CsvSchema(spec);
  }

  QuerySpec SumAllQuery() const {
    QuerySpec spec;
    for (size_t c = 0; c < kCols; ++c) spec.sum_columns.push_back(c);
    return spec;
  }

  std::string csv_path_;
  CsvFileInfo info_;
  Schema schema_;
};

TEST_F(WatchdogScanTest, InjectedReadStallProducesReportAndFlightDump) {
  const std::string dump_path = TestPath("flight.txt");
  ScanRawManager::Config config;
  config.db_path = csv_path_ + ".db";
  config.watchdog_ms = 80;
  config.watchdog_dump_path = dump_path;
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions options;
  options.policy = LoadPolicy::kSpeculativeLoading;
  options.num_workers = 2;
  options.chunk_rows = 250;
  ASSERT_TRUE(
      (*manager)->RegisterRawFile("t", csv_path_, schema_, options).ok());

  // Every read of the raw file sleeps 400 ms — far past the 80 ms window —
  // while the READ stage is active, so the watchdog must fire during the
  // scan. Only the .csv is delayed; database I/O proceeds normally.
  FaultPlan plan;
  plan.path_substring = ".csv";
  plan.read_delay_ms = 400;
  ScopedFaultInjection fault(plan);

  auto result = (*manager)->Query("t", SumAllQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);

  ASSERT_NE((*manager)->watchdog(), nullptr);
  EXPECT_GE((*manager)->watchdog()->stalls_detected(), 1u);
  auto reports = (*manager)->watchdog()->Reports();
  ASSERT_FALSE(reports.empty());
  bool read_stall = false;
  for (const auto& r : reports) {
    if (r.stage == Stage::kRead ||
        r.stage == Stage::kDiskWait) {
      read_stall = true;
      EXPECT_GE(r.stalled_ms, 80);
    }
  }
  EXPECT_TRUE(read_stall);

  // Tear the manager down while the injection is still installed: its
  // background write threads read the global injector, so the injector
  // must outlive them.
  manager->reset();

  EXPECT_TRUE(FileExists(dump_path));
  auto dump = ReadFileToString(dump_path);
  ASSERT_TRUE(dump.ok());
  EXPECT_FALSE(dump->empty());
}

TEST_F(WatchdogScanTest, HealthyScanRaisesNoFalsePositive) {
  ScanRawManager::Config config;
  config.db_path = csv_path_ + ".db";
  config.watchdog_ms = 2000;  // generous for an un-delayed tiny scan
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions options;
  options.policy = LoadPolicy::kSpeculativeLoading;
  options.num_workers = 2;
  options.chunk_rows = 250;
  ASSERT_TRUE(
      (*manager)->RegisterRawFile("t", csv_path_, schema_, options).ok());
  for (int q = 0; q < 3; ++q) {
    auto result = (*manager)->Query("t", SumAllQuery());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_sum, info_.total_sum);
  }
  ASSERT_NE((*manager)->watchdog(), nullptr);
  EXPECT_EQ((*manager)->watchdog()->stalls_detected(), 0u);
}

// The manager's watchdog tick also samples the telemetry rate rings, so a
// /metrics scraper that polls less often than the rate window still finds
// two points in it: no scrape and no resource sampler run here.
TEST_F(WatchdogScanTest, WatchdogTickSamplesRateRings) {
  ScanRawManager::Config config;
  config.db_path = csv_path_ + ".db";
  config.watchdog_ms = 40;  // check interval 10 ms
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions options;
  options.policy = LoadPolicy::kSpeculativeLoading;
  options.num_workers = 2;
  options.chunk_rows = 250;
  options.timeseries_interval_ms = 1;
  ASSERT_EQ(options.resource_sample_interval_ms, 0);
  ASSERT_TRUE(
      (*manager)->RegisterRawFile("t", csv_path_, schema_, options).ok());
  auto result = (*manager)->Query("t", SumAllQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);

  const obs::TimeSeriesRing* ring =
      (*manager)->telemetry()->timeseries().Find("scanraw.rows_delivered");
  ASSERT_NE(ring, nullptr);
  const int64_t deadline = RealClock::Instance()->NowNanos() + 2'000 * kMsNanos;
  while (ring->size() < 2 && RealClock::Instance()->NowNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(ring->size(), 2u);
}

}  // namespace
}  // namespace scanraw
