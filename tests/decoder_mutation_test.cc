// Seeded mutation driver for the JSON decoders of persisted bytes: the
// query-log line reader (QueryLogEvent::FromJsonLine) and the bench-artifact
// reader (ParseBenchJson). Plain gtest with a fixed seed and no fuzzing
// engine: each case mutates a valid input by byte flips, byte overwrites,
// truncations, insertions, deletions and duplicated spans, and the decoder
// must answer false / a Status or a value. It must never crash (the ASan and
// UBSan suites run this binary), never hang (ctest's timeout), and never
// allocate more than a small multiple of the input's size.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <new>
#include <random>
#include <string>
#include <string_view>

#include "io/file.h"
#include "obs/query_log.h"
#include "tools/bench_compare_lib.h"

namespace {

// Bytes requested through operator new since the last reset.
std::atomic<size_t> g_allocated{0};

}  // namespace

void* operator new(size_t n) {
  g_allocated.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a new.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace scanraw {
namespace {

// Total bytes one decode may allocate: a fixed allowance for the decoder's
// own tables plus a constant factor of the input.
constexpr size_t kAllocPerInputByte = 16;
constexpr size_t kAllocFixed = 4 << 10;
constexpr int kCases = 3000;

// Fragments that steer mutations into the decoders' interesting states.
constexpr std::string_view kTokens[] = {
    "{", "}", "[", "]", "\"", ":", ",", "\\", "\\u", "\\u00", "nan", "-inf",
    "1e999", "-", "true", "null", "100000000000000000000", "\"seq\":1,"};

class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  std::string Mutate(std::string s) {
    const int ops = 1 + static_cast<int>(Below(4));
    for (int op = 0; op < ops; ++op) {
      const size_t at = Below(s.size() + 1);
      const size_t len = 1 + Below(16);
      switch (Below(7)) {
        case 0:  // flip one bit
          if (at < s.size()) s[at] ^= static_cast<char>(1u << Below(8));
          break;
        case 1:  // overwrite one byte with any value
          if (at < s.size()) s[at] = static_cast<char>(Below(256));
          break;
        case 2:  // truncate
          s.resize(at);
          break;
        case 3:  // insert a random byte
          s.insert(at, 1, static_cast<char>(Below(256)));
          break;
        case 4:  // insert a structural token
          s.insert(at, kTokens[Below(std::size(kTokens))]);
          break;
        case 5:  // delete a span
          s.erase(std::min(at, s.size()), len);
          break;
        default: {  // duplicate a span somewhere else
          const std::string span = s.substr(std::min(at, s.size()), len);
          s.insert(Below(s.size() + 1), span);
        }
      }
    }
    return s;
  }

 private:
  size_t Below(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }

  std::mt19937_64 rng_;
};

// Runs `decode` on `input` and checks its allocation stays within budget.
template <typename F>
void DecodeWithinBudget(const std::string& input, F&& decode) {
  g_allocated.store(0, std::memory_order_relaxed);
  decode();
  const size_t allocated = g_allocated.load(std::memory_order_relaxed);
  EXPECT_LE(allocated, kAllocFixed + kAllocPerInputByte * input.size())
      << "input of " << input.size() << " bytes";
}

obs::QueryLogEvent SampleEvent() {
  obs::QueryLogEvent e;
  e.seq = 7;
  e.ts_unix_micros = 1723100000000000;
  e.table = "line\"item\\\t\x01";
  e.policy = "speculative-loading";
  e.wall_seconds = 0.125;
  e.columns = {0, 2, 5};
  e.predicate_columns = {2};
  e.rows_scanned = 1000;
  e.stage_busy_seconds = {{"READ", 0.05}, {"PARSE", 0.07}};
  e.chunks_from_raw = 3;
  e.cache_hit_rate = 0.25;
  e.speculation_paid_off = true;
  return e;
}

TEST(DecoderMutationTest, QueryLogLine) {
  const std::string line = SampleEvent().ToJsonLine();
  Mutator mutator(0x5eed'0001);
  int accepted = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string input = mutator.Mutate(line);
    obs::QueryLogEvent event;
    bool ok = false;
    DecodeWithinBudget(
        input, [&] { ok = obs::QueryLogEvent::FromJsonLine(input, &event); });
    if (!ok) continue;
    ++accepted;
    // Whatever parses re-serializes to a line that parses to the same event.
    const std::string again = event.ToJsonLine();
    obs::QueryLogEvent back;
    ASSERT_TRUE(obs::QueryLogEvent::FromJsonLine(again, &back)) << input;
    EXPECT_EQ(back.ToJsonLine(), again) << input;
  }
  // The mutations are small enough that some still decode (a flipped digit,
  // whitespace), so both outcomes are exercised.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCases);
}

TEST(DecoderMutationTest, BenchArtifact) {
  auto golden = ReadFileToString(std::string(SCANRAW_SOURCE_DIR) +
                                 "/bench/golden/BENCH_fig5_pipeline.json");
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  ASSERT_TRUE(ParseBenchJson(*golden).ok());
  Mutator mutator(0x5eed'0002);
  int accepted = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string input = mutator.Mutate(*golden);
    Result<BenchTable> table = Status::Aborted("not decoded");
    DecodeWithinBudget(input, [&] { table = ParseBenchJson(input); });
    if (!table.ok()) continue;
    ++accepted;
    // The diff takes whatever the reader accepts.
    const BenchComparison cmp = CompareBenchTables(*table, *table, 5.0);
    EXPECT_LE(cmp.deltas.size(), table->rows.size() * table->headers.size());
    EXPECT_FALSE(cmp.ToText().empty());
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCases);
}

}  // namespace
}  // namespace scanraw
