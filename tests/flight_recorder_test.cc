// Flight recorder tests: per-thread rings, the lock-free record path under
// concurrency, dump formatting, and the crash-dump integration — a forked
// child running the real pipeline dies at a kill-point and the parent
// asserts the dump file shows what every pipeline thread was doing.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/csv_generator.h"
#include "io/fault_injection.h"
#include "io/file.h"
#include "obs/flight_recorder.h"
#include "scanraw/scan_raw.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace obs {
namespace {

class FlightRecorderTest : public testing::Test {
 protected:
  void SetUp() override { FlightRecorder::Global()->ResetForTest(); }

  static std::string TempPath(const std::string& suffix) {
    std::string name = testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    return testing::TempDir() + "/flight_" + name + suffix;
  }

  static std::string DumpToString() {
    const std::string path = TempPath(".dump");
    EXPECT_TRUE(FlightRecorder::Global()->DumpToFile(path.c_str()));
    auto data = ReadFileToString(path);
    EXPECT_TRUE(data.ok());
    return data.ok() ? *data : std::string();
  }
};

TEST_F(FlightRecorderTest, RecordsAndDumpsEvents) {
  FlightRecord(FlightEvent::kQueryBegin, 3, 2);
  FlightRecord(Stage::kRead, 7, 4096);
  FlightRecord(FlightEvent::kQueryEnd, 0, 137);
  EXPECT_EQ(FlightRecorder::Global()->events_recorded(), 3u);
  EXPECT_EQ(FlightRecorder::Global()->rings_used(), 1u);

  const std::string dump = DumpToString();
  EXPECT_NE(dump.find("flight recorder: 3 events"), std::string::npos);
  EXPECT_NE(dump.find("query-begin"), std::string::npos);
  EXPECT_NE(dump.find("read"), std::string::npos);
  EXPECT_NE(dump.find("a=7 b=4096"), std::string::npos);
  EXPECT_NE(dump.find("query-end"), std::string::npos);
}

TEST_F(FlightRecorderTest, RingWrapsKeepingTheMostRecentEvents) {
  for (uint64_t i = 0; i < FlightRecorder::kRingEvents + 50; ++i) {
    FlightRecord(Stage::kParse, i, 0);
  }
  EXPECT_EQ(FlightRecorder::Global()->events_recorded(),
            FlightRecorder::kRingEvents + 50);
  const std::string dump = DumpToString();
  // The oldest events were overwritten; the newest survive.
  EXPECT_EQ(dump.find("a=10 b=0"), std::string::npos);
  EXPECT_NE(dump.find("a=" + std::to_string(FlightRecorder::kRingEvents + 49)),
            std::string::npos);
}

TEST_F(FlightRecorderTest, EachThreadGetsItsOwnRing) {
  // Park every thread after recording until all have recorded, so all of
  // them hold their ring claims at the same time: each live thread must
  // get a distinct ring.
  constexpr size_t kThreads = 8;
  // When the whole binary runs in one process (the sanitizer shard), the
  // main thread still holds the ring it claimed in an earlier test; count
  // relative to that baseline.
  const size_t base_rings = FlightRecorder::Global()->rings_used();
  std::atomic<size_t> recorded{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &recorded] {
      for (int i = 0; i < 100; ++i) {
        FlightRecord(Stage::kTokenize, static_cast<uint64_t>(t), i);
      }
      recorded.fetch_add(1);
      while (recorded.load() < kThreads) std::this_thread::yield();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(FlightRecorder::Global()->events_recorded(), kThreads * 100u);
  EXPECT_EQ(FlightRecorder::Global()->events_dropped(), 0u);
  // Every thread held a claim concurrently, so each claimed its own ring,
  // and the sticky ever_claimed flag keeps them all dumpable.
  EXPECT_EQ(FlightRecorder::Global()->rings_used(), base_rings + kThreads);

  const std::string dump = DumpToString();
  std::set<std::string> tids;
  size_t pos = 0;
  while ((pos = dump.find("tid=", pos)) != std::string::npos) {
    size_t end = dump.find(' ', pos);
    tids.insert(dump.substr(pos, end - pos));
    pos = end;
  }
  EXPECT_GE(tids.size(), kThreads);
  EXPECT_LE(tids.size(), kThreads + base_rings);
}

TEST_F(FlightRecorderTest, DropsInsteadOfBlockingWhenAllRingsClaimed) {
  // Hold every ring with parked threads, then record from one more thread:
  // the record path must not block or allocate — it drops and counts.
  std::atomic<bool> release{false};
  std::atomic<size_t> parked{0};
  std::vector<std::thread> holders;
  holders.reserve(FlightRecorder::kNumRings);
  for (size_t i = 0; i < FlightRecorder::kNumRings; ++i) {
    holders.emplace_back([&] {
      FlightRecord(FlightEvent::kNone, 0, 0);  // claims this thread's ring
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (parked.load() < FlightRecorder::kNumRings) std::this_thread::yield();

  std::thread extra([] { FlightRecord(FlightEvent::kError, 1, 1); });
  extra.join();
  EXPECT_GE(FlightRecorder::Global()->events_dropped(), 1u);

  release.store(true);
  for (std::thread& t : holders) t.join();
}

TEST_F(FlightRecorderTest, ReleasedRingsAreReusedByLaterThreads) {
  for (int round = 0; round < 3; ++round) {
    std::thread t([] { FlightRecord(FlightEvent::kDeliver, 1, 0); });
    t.join();
  }
  // Sequential threads reuse released rings instead of exhausting the pool.
  EXPECT_LE(FlightRecorder::Global()->rings_used(), 3u);
  EXPECT_EQ(FlightRecorder::Global()->events_dropped(), 0u);
}

// Dumps and trace exports read the rings while pipeline threads record:
// the snapshot sees only whole slots (each field an atomic), never a crash
// or a data race.
TEST_F(FlightRecorderTest, SnapshotAndExportWhileRecording) {
  constexpr size_t kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<size_t> started{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([t, &stop, &started] {
      for (uint64_t i = 0; i == 0 || !stop.load(); ++i) {
        FlightRecord(Stage::kParse, i, t, ChunkSource::kCache, 10);
        FlightRecord(FlightEvent::kDeliver, i, t);
        if (i == 0) started.fetch_add(1);
      }
    });
  }
  while (started.load() < kThreads) std::this_thread::yield();
  for (int round = 0; round < 50; ++round) {
    for (const auto& e : FlightRecorder::Global()->Snapshot()) {
      EXPECT_TRUE(e.event == FlightEvent::kStage ||
                  e.event == FlightEvent::kDeliver);
    }
    const std::string json = FlightRecorder::Global()->ToChromeTraceJson("t");
    EXPECT_EQ(json.front(), '[');
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_GE(FlightRecorder::Global()->events_recorded(), 2 * kThreads);
}

// A speculative scan whose READ blocks on a full text buffer and that ends
// with the safeguard flush leaves both scheduler instants in the dump and
// in the Chrome export.
TEST_F(FlightRecorderTest, SpeculativeScanRecordsSchedulerInstants) {
  const std::string csv_path = TempPath(".csv");
  CsvSpec spec;
  spec.num_rows = 2000;
  spec.num_columns = 4;
  spec.seed = 7;
  auto info = GenerateCsvFile(csv_path, spec);
  ASSERT_TRUE(info.ok());
  ScanRawManager::Config config;
  config.db_path = TempPath(".db");
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions options;
  options.policy = LoadPolicy::kSpeculativeLoading;
  // Sequential conversion: TOKENIZE and PARSE block on their full output
  // buffers, so an unconsumed pipeline must back up into READ.
  options.num_workers = 0;
  options.chunk_rows = 250;  // 8 chunks
  options.text_buffer_capacity = 1;
  options.position_buffer_capacity = 1;
  options.output_buffer_capacity = 1;
  ASSERT_TRUE((*manager)
                  ->RegisterRawFile("t", csv_path, CsvSchema(spec), options)
                  .ok());
  ScanRaw op("t", (*manager)->catalog(), (*manager)->storage(),
             (*manager)->arbiter(), nullptr, options);
  auto run = op.StartQuery({0, 1, 2, 3});
  ASSERT_TRUE(run.ok());
  // Nothing consumes the output until READ has blocked.
  while (op.profile().Get(ProfileCounter::kReadBlockedEvents) == 0) {
    std::this_thread::yield();
  }
  uint64_t rows = 0;
  while (true) {
    auto next = (*run)->Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    rows += (**next)->num_rows();
  }
  (*run)->Finish();
  op.WaitForWrites();
  EXPECT_EQ(rows, 2000u);

  const std::string dump = DumpToString();
  EXPECT_NE(dump.find("read-blocked"), std::string::npos) << dump;
  EXPECT_NE(dump.find("safeguard-flush"), std::string::npos) << dump;
  const std::string json = FlightRecorder::Global()->ToChromeTraceJson("t");
  for (const char* name : {"read-blocked", "safeguard-flush"}) {
    const std::string instant = std::string("\"name\":\"") + name +
                                "\",\"cat\":\"scanraw\",\"ph\":\"i\"";
    EXPECT_NE(json.find(instant), std::string::npos) << name;
  }
}

// The acceptance scenario: a child process runs the real conversion
// pipeline with an armed kill-point, the injected crash dumps the flight
// recorder, and the parent asserts the dump contains events from every
// pipeline stage and more than one thread.
TEST_F(FlightRecorderTest, CrashAtKillPointDumpsEveryPipelineStage) {
  const std::string csv_path = TempPath(".csv");
  const std::string db_path = TempPath(".db");
  const std::string dump_path = TempPath(".crashdump");
  (void)RemoveFileIfExists(dump_path);

  CsvSpec spec;
  spec.num_rows = 2000;
  spec.num_columns = 4;
  spec.seed = 7;
  auto info = GenerateCsvFile(csv_path, spec);
  ASSERT_TRUE(info.ok());

  const pid_t pid = fork();
  if (pid == 0) {
    FlightRecorder::Global()->SetCrashDumpPath(dump_path.c_str());
    FaultPlan plan;
    plan.kill_point = "scanraw.write.before_record";
    plan.kill_point_hit = 3;  // a few chunks flow through every stage first
    ScopedFaultInjection fault(plan);

    ScanRawManager::Config config;
    config.db_path = db_path;
    auto manager = ScanRawManager::Create(config);
    if (!manager.ok()) ::_exit(3);
    ScanRawOptions options;
    options.policy = LoadPolicy::kFullLoad;
    options.num_workers = 2;
    options.chunk_rows = 250;  // 8 chunks
    if (!(*manager)
             ->RegisterRawFile("t", csv_path, CsvSchema(spec), options)
             .ok()) {
      ::_exit(3);
    }
    QuerySpec query;
    query.sum_columns = {0, 1, 2, 3};
    (void)(*manager)->Query("t", query);  // killed mid-load
    ::_exit(3);                           // kill point never fired
  }
  ASSERT_GT(pid, 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), kFaultKillExitCode);

  auto dump_data = ReadFileToString(dump_path);
  ASSERT_TRUE(dump_data.ok()) << "crash dump was not written";
  const std::string& dump = *dump_data;

  // Every pipeline stage left a trace, plus the kill-point itself.
  for (const char* marker : {"query-begin", "read", "tokenize", "parse",
                             "deliver", "write", "kill-point"}) {
    EXPECT_NE(dump.find(marker), std::string::npos)
        << "dump is missing " << marker << " events:\n"
        << dump;
  }

  // Events came from more than one thread (read thread, workers, write
  // thread all record into their own rings).
  std::set<std::string> tids;
  size_t pos = 0;
  while ((pos = dump.find("tid=", pos)) != std::string::npos) {
    size_t end = dump.find(' ', pos);
    tids.insert(dump.substr(pos, end - pos));
    pos = end;
  }
  EXPECT_GE(tids.size(), 3u) << dump;
}

}  // namespace
}  // namespace obs
}  // namespace scanraw
