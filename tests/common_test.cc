#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/crc32c.h"
#include "common/json.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

namespace scanraw {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIoError());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IoError: disk on fire");
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status s = Status::Corruption("bad page");
  Status copy = s;
  EXPECT_TRUE(copy.IsCorruption());
  EXPECT_EQ(copy.message(), "bad page");
  Status moved = std::move(s);
  EXPECT_TRUE(moved.IsCorruption());
  Status assigned;
  assigned = copy;
  EXPECT_TRUE(assigned.IsCorruption());
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string(1000, 'x');
  std::string v = std::move(r).value();
  EXPECT_EQ(v.size(), 1000u);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  int h = 0;
  SCANRAW_ASSIGN_OR_RETURN(h, Half(x));
  *out = h;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_TRUE(UseHalf(7, &out).IsInvalidArgument());
}

TEST(ClockTest, RealClockIsMonotonic) {
  RealClock* clock = RealClock::Instance();
  int64_t a = clock->NowNanos();
  int64_t b = clock->NowNanos();
  EXPECT_LE(a, b);
}

TEST(ClockTest, VirtualClockAdvancesOnlyWhenTold) {
  VirtualClock clock;
  EXPECT_EQ(clock.NowNanos(), 0);
  clock.AdvanceNanos(1500);
  EXPECT_EQ(clock.NowNanos(), 1500);
  clock.AdvanceSeconds(2.0);
  EXPECT_EQ(clock.NowNanos(), 1500 + 2000000000);
  clock.SetNanos(7);
  EXPECT_EQ(clock.NowNanos(), 7);
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 7e-9);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, CoversRange) {
  Random rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(5ull * 1024 * 1024), "5.00 MB");
  EXPECT_EQ(HumanBytes(3ull * 1024 * 1024 * 1024), "3.00 GB");
}

TEST(StringUtilTest, HumanDuration) {
  EXPECT_EQ(HumanDuration(2.5), "2.50 s");
  EXPECT_EQ(HumanDuration(0.0025), "2.50 ms");
  EXPECT_EQ(HumanDuration(25e-6), "25.00 us");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(JsonEscapeTest, EscapesControlAndQuotes) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
}

TEST(JsonEscapeTest, ControlCharactersUseUnicodeEscapes) {
  // Control characters without shorthand escapes use \u00XX.
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(JsonEscape("a\tb\rc"), "a\\tb\\rc");
  // The empty string round-trips.
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(JsonReaderTest, EscapeRoundTripsEverySingleByte) {
  for (int b = 0; b < 256; ++b) {
    const std::string s(1, static_cast<char>(b));
    const std::string text = "\"" + JsonEscape(s) + "\"";
    JsonReader r(text);
    std::string back;
    ASSERT_TRUE(r.Read(&back)) << "byte " << b;
    EXPECT_EQ(back, s) << "byte " << b;
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(JsonReaderTest, EscapeRoundTripsRandomStrings) {
  Random rng(17);
  for (int i = 0; i < 2000; ++i) {
    std::string s(rng.Uniform(64), '\0');
    for (char& c : s) c = static_cast<char>(rng.Uniform(256));
    const std::string text = "\"" + JsonEscape(s) + "\"";
    JsonReader r(text);
    std::string back;
    ASSERT_TRUE(r.Read(&back));
    EXPECT_EQ(back, s);
  }
}

TEST(JsonReaderTest, StandardEscapesAndRejects) {
  std::string s;
  EXPECT_TRUE(JsonReader(R"("\/\b\f\u0041\u00e9\u20ac")").Read(&s));
  EXPECT_EQ(s, "/\b\fA\xC3\xA9\xE2\x82\xAC");
  for (const char* bad : {R"("abc)", R"("\x")", R"("\u12")", R"("\u12g4")",
                          "\"a\nb\"", "abc"}) {
    EXPECT_FALSE(JsonReader(bad).Read(&s)) << bad;
  }
}

TEST(JsonReaderTest, Numbers) {
  uint64_t u = 0;
  EXPECT_TRUE(JsonReader(" 18446744073709551615").Read(&u));
  EXPECT_EQ(u, UINT64_MAX);
  for (const char* bad : {"18446744073709551616", "-1", "1.5", "1e3", "+1",
                          "", "x"}) {
    EXPECT_FALSE(JsonReader(bad).Read(&u)) << bad;
  }
  int64_t i = 0;
  EXPECT_TRUE(JsonReader("-9223372036854775808").Read(&i));
  EXPECT_EQ(i, INT64_MIN);
  EXPECT_FALSE(JsonReader("9223372036854775808").Read(&i));
  double d = 0;
  EXPECT_TRUE(JsonReader("-2.5e-3").Read(&d));
  EXPECT_DOUBLE_EQ(d, -2.5e-3);
  // printf's %g spellings of the non-finite values.
  EXPECT_TRUE(JsonReader("nan").Read(&d));
  EXPECT_TRUE(std::isnan(d));
  EXPECT_TRUE(JsonReader("-inf").Read(&d));
  EXPECT_EQ(d, -HUGE_VAL);
  EXPECT_FALSE(JsonReader("1.5.5").Read(&d));
  bool b = false;
  EXPECT_TRUE(JsonReader("true").Read(&b));
  EXPECT_TRUE(b);
  EXPECT_FALSE(JsonReader("truex").Read(&b));
}

TEST(JsonReaderTest, WalksObjectsAndArraysSkippingUnknownMembers) {
  JsonReader r(R"( {"a": [1, 2 ,3], "skip": {"x": [{}, [], "}", null]},
                   "b": "two"} )");
  std::vector<uint64_t> a;
  std::string b;
  ASSERT_TRUE(r.ReadObject([&](const std::string& key) {
    if (key == "a") return r.ReadArray([&] { return r.Read(&a.emplace_back()); });
    if (key == "b") return r.Read(&b);
    return r.SkipValue();
  }));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(a, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(b, "two");
}

TEST(JsonReaderTest, SkipValueRejectsMalformedAndSurvivesDeepNesting) {
  for (const char* bad : {"[1,]", "{\"a\"}", "{\"a\":1,}", "[}", "{]", "[1 2]",
                          "nul", "[", "\"x", ""}) {
    EXPECT_FALSE(JsonReader(bad).SkipValue()) << bad;
  }
  const size_t depth = 1 << 20;
  std::string deep(depth, '[');
  EXPECT_FALSE(JsonReader(deep).SkipValue());
  deep.append(depth, ']');
  JsonReader r(deep);
  EXPECT_TRUE(r.SkipValue());
  EXPECT_TRUE(r.AtEnd());
}

TEST(StringUtilTest, SplitSingleField) {
  auto parts = SplitString("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StringUtilTest, AppendUint64) {
  std::string s = "x=";
  AppendUint64(&s, 0);
  EXPECT_EQ(s, "x=0");
  s.clear();
  AppendUint64(&s, 18446744073709551615ull);
  EXPECT_EQ(s, "18446744073709551615");
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "ok"), "7-ok");
  // Long outputs exercise the heap path.
  std::string big(500, 'y');
  EXPECT_EQ(StringPrintf("%s", big.c_str()).size(), 500u);
}

TEST(Crc32cTest, KnownAnswers) {
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(detail::Crc32cPortable("123456789"), 0xE3069283u);
  EXPECT_EQ(detail::Crc32cPortable(std::string(32, '\0')), 0x8A9136AAu);
}

// Crc32c dispatches to the SSE4.2 instruction where the CPU has it; it must
// agree with the table path on every length and every start alignment.
TEST(Crc32cTest, HardwareAndTablePathsAgree) {
  Random rng(0xC5C32C);
  std::string buffer(4096 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Uniform(256));
  for (size_t align = 0; align < 8; ++align) {
    for (int trial = 0; trial < 64; ++trial) {
      const size_t len = rng.Uniform(4097);
      const std::string_view data(buffer.data() + align, len);
      ASSERT_EQ(Crc32c(data), detail::Crc32cPortable(data))
          << "length " << len << " alignment " << align;
    }
    for (size_t len = 0; len <= 17; ++len) {  // every tail length
      const std::string_view data(buffer.data() + align, len);
      ASSERT_EQ(Crc32c(data), detail::Crc32cPortable(data));
    }
  }
}

}  // namespace
}  // namespace scanraw
