// Durability tests for the persistent query log: JSONL round trips, seq
// resumption across reopen, size-based rotation, torn-append self-healing
// under fault injection, and fork-based kill-points in the middle of a
// rotation — reload must drop at most the torn record and report what it
// dropped in recovery-style counters.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "io/fault_injection.h"
#include "io/file.h"
#include "obs/query_log.h"

namespace scanraw {
namespace obs {
namespace {

class QueryLogTest : public testing::Test {
 protected:
  void SetUp() override {
    std::string name = testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    path_ = testing::TempDir() + "/querylog_" + name + ".jsonl";
    (void)RemoveFileIfExists(path_);
    (void)RemoveFileIfExists(path_ + ".1");
  }

  static QueryLogEvent SampleEvent(const std::string& table) {
    QueryLogEvent e;
    e.table = table;
    e.policy = "speculative-loading";
    e.wall_seconds = 0.125;
    e.columns = {0, 2, 5};
    e.predicate_columns = {2};
    e.rows_scanned = 1000;
    e.rows_matched = 137;
    e.stage_busy_seconds = {{"READ", 0.05}, {"PARSE", 0.07}};
    e.chunks_from_cache = 1;
    e.chunks_from_db = 2;
    e.chunks_from_raw = 3;
    e.chunks_skipped = 4;
    e.chunks_written = 5;
    e.speculative_triggers = 6;
    e.bytes_read = 7777;
    e.bytes_written = 8888;
    e.useful_bytes_written = 4444;
    e.cache_hit_rate = 0.25;
    e.posmap_hit_rate = 0.75;
    e.speculation_paid_off = true;
    e.advisor_used = true;
    return e;
  }

  std::string path_;
};

TEST_F(QueryLogTest, EventJsonRoundTripsEveryField) {
  QueryLogEvent e = SampleEvent("lineitem \"quoted\"\nname");
  e.seq = 42;
  e.ts_unix_micros = 1723100000000000;
  e.status = "ok";
  const std::string line = e.ToJsonLine();
  ASSERT_EQ(line.find('\n'), std::string::npos) << "must be a single line";

  QueryLogEvent back;
  ASSERT_TRUE(QueryLogEvent::FromJsonLine(line, &back));
  EXPECT_EQ(back.seq, 42u);
  EXPECT_EQ(back.ts_unix_micros, 1723100000000000);
  EXPECT_EQ(back.table, e.table);
  EXPECT_EQ(back.policy, e.policy);
  EXPECT_EQ(back.status, "ok");
  EXPECT_DOUBLE_EQ(back.wall_seconds, 0.125);
  EXPECT_EQ(back.columns, e.columns);
  EXPECT_EQ(back.predicate_columns, e.predicate_columns);
  EXPECT_EQ(back.rows_scanned, 1000u);
  EXPECT_EQ(back.rows_matched, 137u);
  ASSERT_EQ(back.stage_busy_seconds.size(), 2u);
  EXPECT_EQ(back.stage_busy_seconds[0].first, "READ");
  EXPECT_DOUBLE_EQ(back.stage_busy_seconds[1].second, 0.07);
  EXPECT_EQ(back.chunks_from_cache, 1u);
  EXPECT_EQ(back.chunks_from_db, 2u);
  EXPECT_EQ(back.chunks_from_raw, 3u);
  EXPECT_EQ(back.chunks_skipped, 4u);
  EXPECT_EQ(back.chunks_written, 5u);
  EXPECT_EQ(back.speculative_triggers, 6u);
  EXPECT_EQ(back.bytes_read, 7777u);
  EXPECT_EQ(back.bytes_written, 8888u);
  EXPECT_EQ(back.useful_bytes_written, 4444u);
  EXPECT_DOUBLE_EQ(back.cache_hit_rate, 0.25);
  EXPECT_DOUBLE_EQ(back.posmap_hit_rate, 0.75);
  EXPECT_TRUE(back.speculation_paid_off);
  EXPECT_TRUE(back.advisor_used);
}

TEST_F(QueryLogTest, EveryTruncationOfALineIsRejected) {
  const std::string line = SampleEvent("t").ToJsonLine();
  for (size_t cut = 0; cut < line.size(); ++cut) {
    QueryLogEvent e;
    EXPECT_FALSE(
        QueryLogEvent::FromJsonLine(std::string_view(line).substr(0, cut), &e))
        << "torn prefix of length " << cut << " parsed as valid";
  }
  QueryLogEvent e;
  EXPECT_TRUE(QueryLogEvent::FromJsonLine(line, &e));
}

// The members of a JSON object as written ("key":value), read with the
// same reader FromJsonLine uses.
std::vector<std::string> Members(std::string_view object) {
  std::vector<std::string> members;
  JsonReader r(object);
  EXPECT_TRUE(r.ReadObject([&](const std::string& key) {
    const size_t start = r.pos();
    if (!r.SkipValue()) return false;
    members.push_back("\"" + key + "\":" +
                      std::string(object.substr(start, r.pos() - start)));
    return true;
  }));
  return members;
}

std::string Join(const std::vector<std::string>& members) {
  std::string out = "{";
  for (size_t i = 0; i < members.size(); ++i) {
    out += (i > 0 ? "," : "") + members[i];
  }
  return out + "}";
}

TEST_F(QueryLogTest, MembersInAnyOrderAndUnknownMembersParse) {
  const QueryLogEvent e = SampleEvent("t");
  std::vector<std::string> members = Members(e.ToJsonLine());
  ASSERT_EQ(members.size(), 20u);
  std::reverse(members.begin(), members.end());
  members.insert(members.begin() + 3, "\"added_later\":{\"x\":[1,\"}\"]}");
  QueryLogEvent back;
  ASSERT_TRUE(QueryLogEvent::FromJsonLine(Join(members), &back));
  EXPECT_EQ(back.ToJsonLine(), e.ToJsonLine());
}

TEST_F(QueryLogTest, MissingOrRepeatedMemberFailsTheLine) {
  const std::vector<std::string> members =
      Members(SampleEvent("t").ToJsonLine());
  QueryLogEvent e;
  for (size_t i = 0; i < members.size(); ++i) {
    std::vector<std::string> fewer = members;
    fewer.erase(fewer.begin() + i);
    EXPECT_FALSE(QueryLogEvent::FromJsonLine(Join(fewer), &e)) << members[i];
    std::vector<std::string> repeated = members;
    repeated.push_back(members[i]);
    EXPECT_FALSE(QueryLogEvent::FromJsonLine(Join(repeated), &e))
        << members[i];
  }
  // The same holds inside the nested chunks object.
  const std::string prefix = "\"chunks\":";
  size_t at = 0;
  while (members[at].rfind(prefix, 0) != 0) ++at;
  const std::vector<std::string> chunks =
      Members(std::string_view(members[at]).substr(prefix.size()));
  ASSERT_EQ(chunks.size(), 5u);
  for (size_t i = 0; i < chunks.size(); ++i) {
    std::vector<std::string> fewer = chunks;
    fewer.erase(fewer.begin() + i);
    std::vector<std::string> line = members;
    line[at] = prefix + Join(fewer);
    EXPECT_FALSE(QueryLogEvent::FromJsonLine(Join(line), &e)) << chunks[i];
  }
}

TEST_F(QueryLogTest, OutOfRangeIntegerIsRejected) {
  std::vector<std::string> members = Members(SampleEvent("t").ToJsonLine());
  ASSERT_EQ(members[0].rfind("\"seq\":", 0), 0u);
  QueryLogEvent e;
  members[0] = "\"seq\":18446744073709551615";
  ASSERT_TRUE(QueryLogEvent::FromJsonLine(Join(members), &e));
  EXPECT_EQ(e.seq, UINT64_MAX);
  members[0] = "\"seq\":100000000000000000000";  // 21 digits
  EXPECT_FALSE(QueryLogEvent::FromJsonLine(Join(members), &e));
}

TEST_F(QueryLogTest, NonFiniteDoublesRoundTrip) {
  QueryLogEvent e = SampleEvent("t");
  e.wall_seconds = std::numeric_limits<double>::quiet_NaN();
  e.cache_hit_rate = std::numeric_limits<double>::infinity();
  e.posmap_hit_rate = -std::numeric_limits<double>::infinity();
  const std::string line = e.ToJsonLine();
  ASSERT_NE(line.find("\"wall_seconds\":nan"), std::string::npos) << line;
  QueryLogEvent back;
  ASSERT_TRUE(QueryLogEvent::FromJsonLine(line, &back)) << line;
  EXPECT_TRUE(std::isnan(back.wall_seconds));
  EXPECT_EQ(back.cache_hit_rate, std::numeric_limits<double>::infinity());
  EXPECT_EQ(back.posmap_hit_rate, -std::numeric_limits<double>::infinity());
}

TEST_F(QueryLogTest, AppendAssignsSeqAndReadAllReturnsEverything) {
  auto log = QueryLog::Open(path_);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*log)->Append(SampleEvent("t")).ok());
  }
  EXPECT_EQ((*log)->events_appended(), 5u);
  ASSERT_TRUE((*log)->Close().ok());

  QueryLog::LoadStats stats;
  auto events = QueryLog::ReadAll(path_, &stats);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 5u);
  for (size_t i = 0; i < events->size(); ++i) {
    EXPECT_EQ((*events)[i].seq, i + 1);
    EXPECT_GT((*events)[i].ts_unix_micros, 0);
  }
  EXPECT_EQ(stats.events, 5u);
  EXPECT_EQ(stats.max_seq, 5u);
  EXPECT_EQ(stats.dropped_torn, 0u);
  EXPECT_EQ(stats.dropped_corrupt, 0u);
  EXPECT_EQ(stats.version, 1);
}

TEST_F(QueryLogTest, ReopenResumesSequenceNumbers) {
  {
    auto log = QueryLog::Open(path_);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(SampleEvent("t")).ok());
    ASSERT_TRUE((*log)->Append(SampleEvent("t")).ok());
  }
  auto log = QueryLog::Open(path_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->next_seq(), 3u);
  ASSERT_TRUE((*log)->Append(SampleEvent("t")).ok());
  ASSERT_TRUE((*log)->Close().ok());
  auto events = QueryLog::ReadAll(path_);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ(events->back().seq, 3u);
}

TEST_F(QueryLogTest, RotationKeepsOneGenerationAndReadAllMergesBoth) {
  QueryLogOptions options;
  options.rotate_bytes = 1024;  // a few events per generation
  auto log = QueryLog::Open(path_, options);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE((*log)->Append(SampleEvent("t")).ok());
  }
  EXPECT_GT((*log)->rotations(), 0u);
  ASSERT_TRUE((*log)->Close().ok());
  ASSERT_TRUE(FileExists(path_ + ".1"));

  QueryLog::LoadStats stats;
  auto events = QueryLog::ReadAll(path_, &stats);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(stats.generations, 2u);
  // Only one previous generation is kept, so early events may be gone, but
  // what survives is contiguous and ends at the newest seq.
  ASSERT_FALSE(events->empty());
  EXPECT_EQ(events->back().seq, 40u);
  for (size_t i = 1; i < events->size(); ++i) {
    EXPECT_EQ((*events)[i].seq, (*events)[i - 1].seq + 1);
  }
}

TEST_F(QueryLogTest, TornAppendDropsAtMostThatRecordOnReload) {
  auto log = QueryLog::Open(path_);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append(SampleEvent("t")).ok());

  {
    // Every matching append now fails after writing a torn prefix.
    FaultPlan plan;
    plan.path_substring = "querylog_";
    plan.append_error_rate = 1.0;
    plan.torn_fraction = 0.5;
    ScopedFaultInjection fault(plan);
    // The decorator wraps at open time, so reopen the log under injection.
    ASSERT_TRUE((*log)->Close().ok());
    auto injected = QueryLog::Open(path_);
    ASSERT_TRUE(injected.ok());
    EXPECT_FALSE((*injected)->Append(SampleEvent("t")).ok());
    EXPECT_EQ((*injected)->append_failures(), 1u);
    ASSERT_TRUE((*injected)->Close().ok());
  }

  // Reload: the torn trailing record is dropped, the intact one survives.
  QueryLog::LoadStats stats;
  auto events = QueryLog::ReadAll(path_, &stats);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].seq, 1u);
  EXPECT_EQ(stats.dropped_torn + stats.dropped_corrupt, 1u);

  // The next incarnation self-heals the torn tail (Open detects the
  // unterminated line): later events are readable and at most the torn
  // record stays lost.
  auto healed = QueryLog::Open(path_);
  ASSERT_TRUE(healed.ok());
  ASSERT_TRUE((*healed)->Append(SampleEvent("t")).ok());
  ASSERT_TRUE((*healed)->Close().ok());
  auto after = QueryLog::ReadAll(path_, &stats);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 2u);
  // Seq resumes from what survives on disk, so the healed event reuses the
  // torn record's number.
  EXPECT_EQ(after->back().seq, 2u);
  EXPECT_LE(stats.dropped_torn + stats.dropped_corrupt, 1u);
}

TEST_F(QueryLogTest, MidAppendKillLosesAtMostTheTornRecord) {
  {
    auto log = QueryLog::Open(path_);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(SampleEvent("t")).ok());
    ASSERT_TRUE((*log)->Close().ok());
  }
  const pid_t pid = fork();
  if (pid == 0) {
    FaultPlan plan;
    plan.path_substring = "querylog_";
    plan.kill_append_at = 2;  // die mid-way through the second append
    plan.torn_fraction = 0.5;
    ScopedFaultInjection fault(plan);
    auto log = QueryLog::Open(path_);
    if (!log.ok()) ::_exit(3);
    (void)(*log)->Append(SampleEvent("t"));
    (void)(*log)->Append(SampleEvent("t"));  // killed inside this append
    ::_exit(3);                              // kill point did not fire
  }
  ASSERT_GT(pid, 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), kFaultKillExitCode);

  QueryLog::LoadStats stats;
  auto events = QueryLog::ReadAll(path_, &stats);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);  // pre-crash event + child's first append
  EXPECT_EQ(events->back().seq, 2u);
  EXPECT_EQ(stats.dropped_torn, 1u);

  // Restart after the crash: the log keeps appending past the torn tail.
  auto log = QueryLog::Open(path_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->next_seq(), 3u);
  ASSERT_TRUE((*log)->Append(SampleEvent("t")).ok());
  ASSERT_TRUE((*log)->Close().ok());
  auto after = QueryLog::ReadAll(path_, &stats);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 3u);
}

class RotateKillTest : public QueryLogTest,
                       public testing::WithParamInterface<const char*> {};

TEST_P(RotateKillTest, KillDuringRotationReloadsCleanly) {
  const pid_t pid = fork();
  if (pid == 0) {
    FaultPlan plan;
    plan.kill_point = GetParam();
    plan.kill_point_hit = 1;
    ScopedFaultInjection fault(plan);
    QueryLogOptions options;
    options.rotate_bytes = 1024;
    auto log = QueryLog::Open(path_, options);
    if (!log.ok()) ::_exit(3);
    for (int i = 0; i < 40; ++i) {
      (void)(*log)->Append(SampleEvent("t"));  // killed inside a rotation
    }
    ::_exit(3);  // rotation kill point never fired
  }
  ASSERT_GT(pid, 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), kFaultKillExitCode)
      << "kill point " << GetParam() << " was not reached";

  // Reload from whatever the crash left: both generations parse, nothing
  // but (at most) a torn trailing record is missing, and the surviving
  // suffix of the sequence is contiguous.
  QueryLog::LoadStats stats;
  auto events = QueryLog::ReadAll(path_, &stats);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_FALSE(events->empty());
  EXPECT_LE(stats.dropped_torn + stats.dropped_corrupt, 1u);
  for (size_t i = 1; i < events->size(); ++i) {
    EXPECT_EQ((*events)[i].seq, (*events)[i - 1].seq + 1);
  }

  // And the log is usable again: Open resumes past the crash point.
  auto log = QueryLog::Open(path_);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->next_seq(), stats.max_seq + 1);
  ASSERT_TRUE((*log)->Append(SampleEvent("t")).ok());
  ASSERT_TRUE((*log)->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(RotationProtocol, RotateKillTest,
                         testing::Values("querylog.rotate.before_rename",
                                         "querylog.rotate.after_rename"));

TEST_F(QueryLogTest, CorruptInteriorLineIsCountedNotFatal) {
  {
    auto log = QueryLog::Open(path_);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(SampleEvent("t")).ok());
    ASSERT_TRUE((*log)->Close().ok());
  }
  // Smash a terminated garbage line into the middle of the file, then a
  // valid tail after it.
  {
    auto file = WritableFile::OpenForAppend(path_);
    ASSERT_TRUE(file.ok());
    const std::string garbage = "{\"seq\":9999,\"broken\n";
    ASSERT_TRUE((*file)->Append(garbage.data(), garbage.size()).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  {
    auto log = QueryLog::Open(path_);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(SampleEvent("t")).ok());
    ASSERT_TRUE((*log)->Close().ok());
  }
  QueryLog::LoadStats stats;
  auto events = QueryLog::ReadAll(path_, &stats);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 2u);
  EXPECT_EQ(stats.dropped_corrupt, 1u);
}

TEST_F(QueryLogTest, ObserverSeesEveryAppendedEvent) {
  auto log = QueryLog::Open(path_);
  ASSERT_TRUE(log.ok());
  std::vector<uint64_t> seen;
  (*log)->SetObserver(
      [&seen](const QueryLogEvent& e) { seen.push_back(e.seq); });
  ASSERT_TRUE((*log)->Append(SampleEvent("t")).ok());
  ASSERT_TRUE((*log)->Append(SampleEvent("t")).ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2}));
}

}  // namespace
}  // namespace obs
}  // namespace scanraw
