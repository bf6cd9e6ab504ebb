#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace lsg {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing table");
  EXPECT_EQ(s.ToString(), "NotFound: missing table");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::OutOfRange("").code(),
      Status::FailedPrecondition("").code(),
      Status::Unimplemented("").code(),   Status::Internal("").code(),
      Status::ResourceExhausted("").code()};
  EXPECT_EQ(codes.size(), 8u);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(StatusOrTest, HoldsValue) {
  auto r = ParsePositive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_EQ(r.value(), 5);
}

TEST(StatusOrTest, HoldsError) {
  auto r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Status ChainOk() {
  LSG_RETURN_IF_ERROR(Status::Ok());
  return Status::Ok();
}

Status ChainFail() {
  LSG_RETURN_IF_ERROR(Status::Internal("boom"));
  return Status::Ok();
}

TEST(StatusMacroTest, ReturnIfError) {
  EXPECT_TRUE(ChainOk().ok());
  EXPECT_EQ(ChainFail().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleIn01) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ZipfSkewsTowardSmallIndices) {
  Rng rng(19);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(100, 1.0) < 10) ++low;
  }
  // Under uniform, ~10%; zipf(1.0) should put far more mass on the head.
  EXPECT_GT(low, n / 4);
}

TEST(RngTest, ZipfZeroSkewIsUniformish) {
  Rng rng(21);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(100, 0.0) < 10) ++low;
  }
  EXPECT_NEAR(low / static_cast<double>(n), 0.1, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(23);
  std::vector<double> w = {1.0, 3.0, 0.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[1] / static_cast<double>(counts[0]), 3.0, 0.3);
}

TEST(RngTest, CategoricalAllZeroReturnsSize) {
  Rng rng(25);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_EQ(rng.Categorical(w), w.size());
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(27);
  for (int trial = 0; trial < 50; ++trial) {
    auto s = rng.SampleWithoutReplacement(20, 10);
    std::set<size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 10u);
    for (size_t v : s) EXPECT_LT(v, 20u);
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(29);
  auto s = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ---------------------------------------------------------------- strings

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringUtilTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("from"), "FROM");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
  EXPECT_TRUE(EndsWith("query.sql", ".sql"));
  EXPECT_FALSE(EndsWith("x", ".sql"));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("z"), "z");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
}

TEST(StringUtilTest, HumanCount) {
  EXPECT_EQ(HumanCount(950), "950");
  EXPECT_EQ(HumanCount(1500), "1.5K");
  EXPECT_EQ(HumanCount(2000000), "2M");
  EXPECT_EQ(HumanCount(3.2e9), "3.2G");
}

// ---------------------------------------------------------------- misc

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch w;
  double t0 = w.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GE(w.ElapsedSeconds(), t0);
  w.Restart();
  EXPECT_LT(w.ElapsedSeconds(), 1.0);
}

TEST(LoggingTest, LevelFiltering) {
  LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  LSG_LOG(Info) << "should be filtered";
  SetLogLevel(prev);
}

TEST(LoggingTest, CheckPassesOnTrue) {
  LSG_CHECK(1 + 1 == 2) << "unreachable";
}

// Release builds (LSG_DCHECK_OFF) compile the condition but never
// evaluate it; every other build type checks it like LSG_CHECK.
TEST(LoggingTest, DcheckRunsOutsideReleaseOnly) {
  int evaluated = 0;
  auto bump = [&] { return ++evaluated > 0; };
  LSG_DCHECK(bump()) << "unreachable";
#ifdef LSG_DCHECK_OFF
  EXPECT_EQ(evaluated, 0);
#else
  EXPECT_EQ(evaluated, 1);
  EXPECT_DEATH(LSG_DCHECK(evaluated == 0), "Check failed: evaluated == 0");
#endif
}

TEST(LoggingTest, SplitMix64IsStableAndMixes) {
  EXPECT_EQ(SplitMix64(1), SplitMix64(1));
  EXPECT_NE(SplitMix64(1), SplitMix64(2));  // adjacent seeds decorrelate
  EXPECT_NE(SplitMix64(0), 0u);
}

TEST(LoggingTest, ConcurrentLoggersNeverTearLines) {
  std::FILE* capture = std::tmpfile();
  ASSERT_NE(capture, nullptr);
  SetLogSink(capture);
  LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);

  constexpr int kThreads = 4;
  constexpr int kLines = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        LSG_LOG(Info) << "BEGIN worker=" << t << " line=" << i << " END";
      }
    });
  }
  for (auto& t : threads) t.join();
  SetLogLevel(prev);
  SetLogSink(nullptr);

  std::rewind(capture);
  char buf[512];
  int lines = 0;
  while (std::fgets(buf, sizeof(buf), capture) != nullptr) {
    std::string line(buf);
    // Every emitted line must be whole: one BEGIN, one END, END at the end.
    EXPECT_NE(line.find("BEGIN"), std::string::npos) << line;
    EXPECT_EQ(line.rfind("END\n"), line.size() - 4) << line;
    EXPECT_EQ(line.find("BEGIN"), line.rfind("BEGIN")) << line;
    ++lines;
  }
  EXPECT_EQ(lines, kThreads * kLines);
  std::fclose(capture);
}

}  // namespace
}  // namespace lsg
