// Tests for the observability subsystem (src/obs/): striped counters under
// contention, histogram percentile accuracy vs exact quantiles, span ring
// overflow behavior, Chrome trace export, episode-sink rotation, and the
// minimal JSON reader the tooling is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "obs/episode_telemetry.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"

namespace lsg {
namespace obs {
namespace {

std::string TempPath(const std::string& name) {
  auto p = std::filesystem::temp_directory_path() / ("lsg_obs_" + name);
  std::filesystem::remove(p);
  return p.string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// ----------------------------------------------------------- MetricsRegistry

TEST(CounterTest, ExactUnderConcurrentIncrements) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("test.hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  // Striping must lose nothing: the sum over stripes is exact once all
  // writers have joined.
  EXPECT_EQ(c.Value(), uint64_t{kThreads} * kPerThread);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, HandlesAreStableAndNamed) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x");
  Counter& b = reg.GetCounter("x");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(reg.Snapshot().counters.at("x"), 3u);
}

TEST(GaugeTest, LastWriteWins) {
  MetricsRegistry reg;
  Gauge& g = reg.GetGauge("test.frac");
  g.Set(0.25);
  g.Set(-1.5);
  EXPECT_DOUBLE_EQ(g.Value(), -1.5);
  EXPECT_DOUBLE_EQ(reg.Snapshot().gauges.at("test.frac"), -1.5);
}

TEST(HistogramTest, BucketMappingIsMonotoneAndConsistent) {
  int prev = -1;
  for (uint64_t v : {0ull, 1ull, 7ull, 8ull, 9ull, 100ull, 1000ull,
                     123456ull, 1ull << 32, ~0ull}) {
    int idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, prev);  // monotone in value
    EXPECT_LE(Histogram::BucketLowerBound(idx), v);
    if (idx + 1 < Histogram::kBuckets) {
      EXPECT_GT(Histogram::BucketLowerBound(idx + 1), v);
    }
    prev = idx;
  }
}

TEST(HistogramTest, PercentilesTrackExactQuantiles) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("test.lat_ns");
  // Log-uniform latencies across 1us..10ms — the shape the histogram is
  // built for.
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> exp_dist(3.0, 7.0);
  std::vector<uint64_t> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(static_cast<uint64_t>(std::pow(10.0, exp_dist(rng))));
  }
  for (uint64_t v : values) h.Record(v);
  std::sort(values.begin(), values.end());
  auto exact = [&](double q) {
    return static_cast<double>(
        values[static_cast<size_t>(q * (values.size() - 1))]);
  };
  HistogramStats s = h.Snapshot();
  EXPECT_EQ(s.count, values.size());
  // Buckets are ~9% wide and quantiles report the midpoint, so ~10%
  // relative error is the spec'd ceiling (plus a little sampling slack).
  EXPECT_NEAR(s.p50, exact(0.50), 0.12 * exact(0.50));
  EXPECT_NEAR(s.p95, exact(0.95), 0.12 * exact(0.95));
  EXPECT_NEAR(s.p99, exact(0.99), 0.12 * exact(0.99));
  double exact_mean = 0;
  for (uint64_t v : values) exact_mean += static_cast<double>(v);
  exact_mean /= static_cast<double>(values.size());
  EXPECT_NEAR(s.mean, exact_mean, 1e-6 * exact_mean);  // sum is exact
  EXPECT_GE(s.max, static_cast<double>(values.back()));
}

TEST(MetricsSnapshotTest, ToJsonParsesAndCarriesValues) {
  MetricsRegistry reg;
  reg.GetCounter("a.count").Add(7);
  reg.GetGauge("b.frac").Set(0.5);
  reg.GetHistogram("c.lat_ns").Record(1000);
  auto parsed = JsonParse(reg.Snapshot().ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->NumberOr("a.count", -1), 7.0);
  EXPECT_DOUBLE_EQ(parsed->NumberOr("b.frac", -1), 0.5);
  EXPECT_DOUBLE_EQ(parsed->NumberOr("c.lat_ns.count", -1), 1.0);
  EXPECT_GT(parsed->NumberOr("c.lat_ns.p50", -1), 0.0);
}

// --------------------------------------------------------------- SpanTracer

TEST(SpanTracerTest, OverflowDropsOldestWithoutCorruption) {
  SpanTracer tracer(64);
  EXPECT_EQ(tracer.capacity(), 64u);
  for (uint64_t i = 0; i < 200; ++i) {
    tracer.Record("span", /*start_ns=*/i * 10, /*duration_ns=*/5);
  }
  std::vector<SpanTracer::Span> spans = tracer.Snapshot();
  EXPECT_EQ(spans.size(), 64u);
  EXPECT_EQ(tracer.total_recorded(), 200u);
  // The survivors are exactly the newest `capacity` records, in order.
  uint64_t prev_seq = 0;
  for (const auto& s : spans) {
    EXPECT_GT(s.seq, uint64_t{200 - 64});
    EXPECT_GT(s.seq, prev_seq);
    prev_seq = s.seq;
    EXPECT_STREQ(s.name, "span");
    EXPECT_EQ(s.duration_ns, 5u);
    EXPECT_EQ(s.start_ns, (s.seq - 1) * 10);  // fields stay paired
  }
}

TEST(SpanTracerTest, ConcurrentRecordersProduceOnlyValidSpans) {
  SpanTracer tracer(128);  // smaller than the write volume: constant churn
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  static const char* kNames[kThreads] = {"t0", "t1", "t2", "t3"};
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  // A reader snapshots concurrently with the writers; every span it sees
  // must be fully formed (the seqlock discards mid-write slots).
  std::thread reader([&] {
    while (!stop.load()) {
      for (const auto& s : tracer.Snapshot()) {
        ASSERT_NE(s.name, nullptr);
        ASSERT_EQ(s.duration_ns, 7u);
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.Record(kNames[t], static_cast<uint64_t>(i) + 1, 7);
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(tracer.total_recorded(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(tracer.Snapshot().size(), tracer.capacity());
}

TEST(SpanTracerTest, ChromeTraceJsonParsesAndNests) {
  SpanTracer tracer(64);
  // An outer span enclosing an inner one, as LSG_OBS_SPAN scopes produce.
  tracer.Record("inner", /*start_ns=*/2000, /*duration_ns=*/1000);
  tracer.Record("outer", /*start_ns=*/1000, /*duration_ns=*/4000);
  auto parsed = JsonParse(tracer.ChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  const JsonValue* inner = nullptr;
  const JsonValue* outer = nullptr;
  for (const JsonValue& e : events->array) {
    EXPECT_EQ(e.StringOr("ph", ""), "X");
    EXPECT_GE(e.NumberOr("tid", -1), 0.0);
    if (e.StringOr("name", "") == "inner") inner = &e;
    if (e.StringOr("name", "") == "outer") outer = &e;
  }
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(outer, nullptr);
  // Timestamp containment (microseconds) is what makes the viewer nest.
  double o0 = outer->NumberOr("ts", -1), o1 = o0 + outer->NumberOr("dur", 0);
  double i0 = inner->NumberOr("ts", -1), i1 = i0 + inner->NumberOr("dur", 0);
  EXPECT_LE(o0, i0);
  EXPECT_GE(o1, i1);
}

TEST(SpanTracerTest, DisabledScopedSpanRecordsNothing) {
  SpanTracer tracer(8);
  {
    ScopedSpan inert(nullptr, "never");  // the Enabled()==false path
    ScopedSpan live(&tracer, "once");
  }
  std::vector<SpanTracer::Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "once");
}

TEST(ObsEnableTest, FlagLatchesAndClears) {
  bool before = Enabled();
  SetEnabled(true);
  EXPECT_TRUE(Enabled());
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
  SetEnabled(before);
}

// --------------------------------------------------------- EpisodeTelemetry

EpisodeRow MakeRow(int i) {
  EpisodeRow row;
  row.constraint = "Card in [5,50]";
  row.reward = 0.5 * i;
  row.final_metric = i;
  row.satisfied = (i % 2) == 0;
  row.tokens = 10 + i;
  row.estimator_calls = 3;
  row.mean_mask_width = 6.25;
  row.wall_seconds = 0.001;
  return row;
}

TEST(EpisodeTelemetryTest, JsonlRowsRoundTripThroughParser) {
  std::string path = TempPath("rows.jsonl");
  {
    EpisodeTelemetry sink(path);
    ASSERT_TRUE(sink.ok());
    sink.SetTag("train");
    sink.Record(MakeRow(4));
    EpisodeRow tagged = MakeRow(5);
    tagged.tag = "generate";  // explicit tag beats the sink tag
    sink.Record(tagged);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto row = JsonParse(line);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row->StringOr("constraint", ""), "Card in [5,50]");
  EXPECT_EQ(row->StringOr("tag", ""), "train");
  EXPECT_DOUBLE_EQ(row->NumberOr("reward", -1), 2.0);
  EXPECT_DOUBLE_EQ(row->NumberOr("satisfied", -1), 1.0);
  EXPECT_DOUBLE_EQ(row->NumberOr("tokens", -1), 14.0);
  ASSERT_TRUE(std::getline(in, line));
  auto row2 = JsonParse(line);
  ASSERT_TRUE(row2.ok());
  EXPECT_EQ(row2->StringOr("tag", ""), "generate");
  std::filesystem::remove(path);
}

// A tag or constraint may hold any byte, control characters included: the
// row must still be one JSONL line that parses back to the same strings.
TEST(EpisodeTelemetryTest, ControlCharactersStayOneParseableLine) {
  std::string path = TempPath("ctl.jsonl");
  EpisodeRow written = MakeRow(1);
  written.tag = "train\nphase\t2";
  written.constraint = "Card \"in\" [5,50]\r\x01\\";
  {
    EpisodeTelemetry sink(path);
    ASSERT_TRUE(sink.ok());
    sink.Record(written);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto row = JsonParse(line);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row->StringOr("tag", ""), written.tag);
  EXPECT_EQ(row->StringOr("constraint", ""), written.constraint);
  EXPECT_FALSE(std::getline(in, line));
  std::filesystem::remove(path);
}

TEST(EpisodeTelemetryTest, CsvWritesHeaderPerFile) {
  std::string path = TempPath("rows.csv");
  {
    EpisodeTelemetry::Options o;
    o.max_rows_per_file = 2;
    o.max_files = 2;
    EpisodeTelemetry sink(path, o);
    for (int i = 0; i < 3; ++i) sink.Record(MakeRow(i));
  }
  std::string active = ReadAll(path);
  std::string rotated = ReadAll(path + ".1");
  EXPECT_EQ(active.find("constraint,tag,reward"), 0u);
  EXPECT_EQ(rotated.find("constraint,tag,reward"), 0u);
  // 2 rows rotated out, 1 still active; header is not a row.
  EXPECT_EQ(std::count(rotated.begin(), rotated.end(), '\n'), 3);
  EXPECT_EQ(std::count(active.begin(), active.end(), '\n'), 2);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
}

TEST(EpisodeTelemetryTest, RotationKeepsNewestAndCapsFileCount) {
  std::string path = TempPath("rot.jsonl");
  EpisodeTelemetry::Options o;
  o.max_rows_per_file = 10;
  o.max_files = 3;
  {
    EpisodeTelemetry sink(path, o);
    for (int i = 0; i < 35; ++i) sink.Record(MakeRow(i));
    EXPECT_EQ(sink.rows_written(), 35u);
    EXPECT_EQ(sink.rotations(), 3);
  }
  // 35 rows / 10 per file: rows 30..34 active, 20..29 in .1, 10..19 in .2,
  // 0..9 aged out (max_files = 3).
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".1"));
  EXPECT_TRUE(std::filesystem::exists(path + ".2"));
  EXPECT_FALSE(std::filesystem::exists(path + ".3"));
  auto first_metric = [](const std::string& file) {
    std::ifstream in(file);
    std::string line;
    EXPECT_TRUE(std::getline(in, line));
    auto row = JsonParse(line);
    EXPECT_TRUE(row.ok());
    return row.ok() ? row->NumberOr("final_metric", -1) : -1.0;
  };
  EXPECT_DOUBLE_EQ(first_metric(path), 30.0);
  EXPECT_DOUBLE_EQ(first_metric(path + ".1"), 20.0);
  EXPECT_DOUBLE_EQ(first_metric(path + ".2"), 10.0);
  for (const char* suffix : {"", ".1", ".2"}) {
    std::filesystem::remove(path + suffix);
  }
}

// --------------------------------------------------------------- JSON reader

TEST(JsonTest, ParsesNestedDocuments) {
  auto v = JsonParse(
      R"({"a": 1.5, "b": [1, 2, {"c": "x\"y"}], "d": true, "e": null})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_DOUBLE_EQ(v->NumberOr("a", -1), 1.5);
  const JsonValue* b = v->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_EQ(b->array[2].StringOr("c", ""), "x\"y");
  EXPECT_EQ(v->Find("d")->b, true);
  EXPECT_EQ(v->Find("e")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonParse("{").ok());
  EXPECT_FALSE(JsonParse("{\"a\": }").ok());
  EXPECT_FALSE(JsonParse("[1, 2] trailing").ok());
  EXPECT_FALSE(JsonParse("").ok());
}

TEST(JsonTest, DecodesEscapesIncludingUnicode) {
  auto v = JsonParse(R"({"a": "tab\there", "b": "\b\f", "c": "A\u00e9",
                         "d": "\u20ac", "e": "\ud83d\ude00"})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->StringOr("a", ""), "tab\there");
  EXPECT_EQ(v->StringOr("b", ""), "\b\f");
  EXPECT_EQ(v->StringOr("c", ""), "A\xc3\xa9");          // A, é (2-byte UTF-8)
  EXPECT_EQ(v->StringOr("d", ""), "\xe2\x82\xac");       // € (3-byte UTF-8)
  EXPECT_EQ(v->StringOr("e", ""), "\xf0\x9f\x98\x80");   // 😀 surrogate pair
}

TEST(JsonTest, RejectsBadUnicodeEscapes) {
  EXPECT_FALSE(JsonParse(R"(["\u12"])").ok());       // truncated hex
  EXPECT_FALSE(JsonParse(R"(["\u12xz"])").ok());     // non-hex digits
  EXPECT_FALSE(JsonParse(R"(["\ud83d"])").ok());     // unpaired high surrogate
  EXPECT_FALSE(JsonParse(R"(["\ud83dA"])").ok());  // bad low surrogate
  EXPECT_FALSE(JsonParse(R"(["\ude00"])").ok());     // lone low surrogate
}

TEST(JsonTest, BoundsNestingDepth) {
  // Depth exactly at the cap parses; one deeper is rejected — gracefully,
  // not by exhausting the call stack (the net fuzzer sends 64KB of '[').
  std::string ok_doc(kJsonMaxDepth, '[');
  ok_doc.append(kJsonMaxDepth, ']');
  EXPECT_TRUE(JsonParse(ok_doc).ok());

  std::string deep(kJsonMaxDepth + 1, '[');
  deep.append(kJsonMaxDepth + 1, ']');
  EXPECT_FALSE(JsonParse(deep).ok());

  std::string huge(60000, '[');
  EXPECT_FALSE(JsonParse(huge).ok());
}

TEST(JsonTest, FlattensTopLevelNumbers) {
  auto v = JsonParse(R"({"a": 2, "b": true, "c": "skip", "d": {"x": 1}})");
  ASSERT_TRUE(v.ok());
  auto flat = JsonFlatNumbers(*v);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->size(), 2u);
  EXPECT_DOUBLE_EQ(flat->at("a"), 2.0);
  EXPECT_DOUBLE_EQ(flat->at("b"), 1.0);
}

// ----------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, NanosecondAccessorsAreMonotonic) {
  uint64_t a = Stopwatch::NowNanos();
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 1000; ++i) sink = sink + i;
  uint64_t elapsed = w.ElapsedNanos();
  uint64_t b = Stopwatch::NowNanos();
  EXPECT_GE(b, a);
  EXPECT_GT(elapsed, 0u);
  EXPECT_LE(elapsed, b - a);
  EXPECT_NEAR(w.ElapsedSeconds(), static_cast<double>(w.ElapsedNanos()) / 1e9,
              1e-3);
}

}  // namespace
}  // namespace obs
}  // namespace lsg
