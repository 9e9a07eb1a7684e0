// Observability-layer tests: trace recorder (JSON well-formedness, span
// pairing/nesting per thread, pipeline span counts, zero-output guarantee
// when disabled), leveled logger (threshold, sink capture, CHECK routing),
// latency-histogram bucket/percentile correctness
// against a sorted reference, phase-drift accounting, and the versioned
// run report (schema-v2 latency/trace blocks, per-unit predicted-vs-actual
// columns, determinism of counters and histogram counts across thread
// counts and fast-path settings).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "delex/engine.h"
#include "harness/experiment.h"
#include "harness/programs.h"
#include "obs/histogram.h"
#include "obs/json_writer.h"
#include "obs/log.h"
#include "obs/mem.h"
#include "obs/run_report.h"
#include "obs/trace.h"

namespace delex {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON parser — enough to validate trace files and run-report
// lines without external dependencies. Numbers are doubles; objects keep
// only the last value per key (duplicate keys are a test failure anyway).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool Has(const std::string& key) const {
    return kind == kObject && object.count(key) > 0;
  }
  const JsonValue& At(const std::string& key) const {
    static const JsonValue missing;
    auto it = object.find(key);
    return it != object.end() ? it->second : missing;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            *out += '?';  // tests never inspect non-ASCII content
            pos_ += 4;
            break;
          }
          default:
            return false;
        }
      } else {
        *out += c;
      }
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->string);
    }
    if (ParseLiteral("true")) {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      return true;
    }
    if (ParseLiteral("false")) {
      out->kind = JsonValue::kBool;
      out->boolean = false;
      return true;
    }
    if (ParseLiteral("null")) {
      out->kind = JsonValue::kNull;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::kNumber;
    out->number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return true;
  }

  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) return false;
    out->kind = JsonValue::kArray;
    SkipSpace();
    if (Consume(']')) return true;
    for (;;) {
      JsonValue element;
      if (!ParseValue(&element)) return false;
      out->array.push_back(std::move(element));
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) return false;
    out->kind = JsonValue::kObject;
    SkipSpace();
    if (Consume('}')) return true;
    for (;;) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object[key] = std::move(value);
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

JsonValue MustParse(const std::string& text) {
  JsonValue value;
  JsonParser parser(text);
  EXPECT_TRUE(parser.Parse(&value)) << "invalid JSON: " << text;
  return value;
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << path;
  return std::string((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string FreshDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("delex-obs-" + tag)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, EscapesAndNesting) {
  obs::JsonWriter json;
  json.BeginObject()
      .KV("s", "a\"b\\c\nd\te")
      .KV("i", static_cast<int64_t>(-42))
      .KV("b", true)
      .KV("d", 1.5)
      .Key("arr")
      .BeginArray()
      .Value(1)
      .Value("two")
      .Null()
      .EndArray()
      .Key("nested")
      .BeginObject()
      .KV("x", static_cast<int64_t>(0))
      .EndObject()
      .EndObject();
  JsonValue parsed = MustParse(json.str());
  EXPECT_EQ(parsed.At("s").string, "a\"b\\c\nd\te");
  EXPECT_EQ(parsed.At("i").number, -42);
  EXPECT_TRUE(parsed.At("b").boolean);
  EXPECT_EQ(parsed.At("arr").array.size(), 3u);
  EXPECT_EQ(parsed.At("nested").At("x").number, 0);
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter json;
  json.BeginObject()
      .KV("inf", std::numeric_limits<double>::infinity())
      .KV("nan", std::numeric_limits<double>::quiet_NaN())
      .EndObject();
  JsonValue parsed = MustParse(json.str());
  EXPECT_EQ(parsed.At("inf").kind, JsonValue::kNull);
  EXPECT_EQ(parsed.At("nan").kind, JsonValue::kNull);
}

// ---------------------------------------------------------------------------
// Logger
// ---------------------------------------------------------------------------

std::vector<std::string>& CapturedLines() {
  static std::vector<std::string> lines;
  return lines;
}

void CaptureSink(obs::LogLevel, const std::string& line) {
  CapturedLines().push_back(line);
}

class LogCapture {
 public:
  LogCapture() {
    CapturedLines().clear();
    obs::SetLogSinkForTesting(&CaptureSink);
  }
  ~LogCapture() { obs::SetLogSinkForTesting(nullptr); }
};

TEST(LogTest, ThresholdFiltersAndOperandsNotEvaluated) {
  LogCapture capture;
  obs::LogLevel saved = obs::GetLogLevel();
  obs::SetLogLevel(obs::LogLevel::kWARN);
  int evaluations = 0;
  auto count = [&evaluations]() {
    ++evaluations;
    return 7;
  };
  DELEX_LOG(DEBUG) << "hidden " << count();
  DELEX_LOG(INFO) << "hidden " << count();
  DELEX_LOG(WARN) << "visible " << count();
  DELEX_LOG(ERROR) << "visible " << count();
  obs::SetLogLevel(saved);
  EXPECT_EQ(evaluations, 2);
  ASSERT_EQ(CapturedLines().size(), 2u);
  EXPECT_NE(CapturedLines()[0].find("visible 7"), std::string::npos);
  EXPECT_EQ(CapturedLines()[0][0], 'W');
  EXPECT_EQ(CapturedLines()[1][0], 'E');
}

TEST(LogTest, LinePrefixCarriesFileAndThread) {
  LogCapture capture;
  obs::LogLevel saved = obs::GetLogLevel();
  obs::SetLogLevel(obs::LogLevel::kINFO);
  DELEX_LOG(INFO) << "marker";
  obs::SetLogLevel(saved);
  ASSERT_EQ(CapturedLines().size(), 1u);
  const std::string& line = CapturedLines()[0];
  EXPECT_NE(line.find("obs_test.cc:"), std::string::npos) << line;
  EXPECT_NE(line.find(" t"), std::string::npos) << line;
  EXPECT_EQ(line.back(), '\n');
}

TEST(LogTest, CheckMacrosStillPass) {
  // DELEX_CHECK semantics preserved: passing checks are silent no-ops.
  LogCapture capture;
  DELEX_CHECK(true);
  DELEX_CHECK_EQ(2 + 2, 4);
  DELEX_CHECK_LE(1, 1);
  DELEX_CHECK_LT(1, 2);
  DELEX_CHECK_GE(2, 2);
  EXPECT_TRUE(CapturedLines().empty());
}

TEST(LogDeathTest, CheckFailureEmitsAndAborts) {
  EXPECT_DEATH({ DELEX_CHECK_MSG(1 == 2, "broken invariant"); },
               "CHECK failed.*broken invariant");
}

TEST(LogDeathTest, CheckFailureFlushesStartedTraceBeforeAborting) {
  // The crash-flush hooks registered by TraceRecorder::Start must run in
  // the CHECK-failure path, so a crashed run still leaves a parseable
  // trace behind. threadsafe style re-executes the test in the child, so
  // the recorder state there is exactly what the statement sets up.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string path = TempPath("delex-obs-crash-trace.json");
  std::filesystem::remove(path);
  EXPECT_DEATH(
      {
        obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
        recorder.ClearForTesting();
        if (recorder.Start(path).ok()) {
          { DELEX_TRACE_SPAN("doomed_span", 1); }
          DELEX_CHECK_MSG(false, "crash-flush test");
        }
      },
      "CHECK failed.*crash-flush test");
  JsonValue trace = MustParse(ReadFile(path));
  ASSERT_TRUE(trace.Has("traceEvents"));
  bool saw_span = false;
  for (const JsonValue& event : trace.At("traceEvents").array) {
    if (event.At("name").string == "doomed_span") saw_span = true;
  }
  EXPECT_TRUE(saw_span) << "crash flush dropped the buffered span";
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundsPartitionTheValueRange) {
  // Buckets tile [0, INT64_MAX] with no gaps or overlaps, and both bounds
  // of every bucket map back to that bucket.
  for (int i = 0; i < obs::hist::kBucketCount; ++i) {
    int64_t lower = obs::hist::BucketLowerBound(i);
    int64_t upper = obs::hist::BucketUpperBound(i);
    EXPECT_LE(lower, upper) << "bucket " << i;
    EXPECT_EQ(obs::hist::BucketIndex(lower), i);
    EXPECT_EQ(obs::hist::BucketIndex(upper), i);
    if (i + 1 < obs::hist::kBucketCount) {
      EXPECT_EQ(obs::hist::BucketLowerBound(i + 1), upper + 1)
          << "gap/overlap between buckets " << i << " and " << i + 1;
    }
  }
  EXPECT_EQ(obs::hist::BucketIndex(-5), 0);
  EXPECT_EQ(obs::hist::BucketIndex(INT64_MAX), obs::hist::kBucketCount - 1);
}

TEST(HistogramTest, BucketWidthStaysUnderTheRelativeErrorBound) {
  // Above the linear range every bucket is at most 1/16 of its lower
  // bound wide — the ≤6.25 % relative-error contract percentiles rely on.
  for (int i = obs::hist::kLinearBuckets; i < obs::hist::kBucketCount - 1;
       ++i) {
    int64_t lower = obs::hist::BucketLowerBound(i);
    int64_t width = obs::hist::BucketUpperBound(i) - lower + 1;
    EXPECT_LE(width * 16, lower) << "bucket " << i;
  }
}

TEST(HistogramTest, PercentilesTrackASortedReference) {
  obs::LocalHistogram hist;
  std::vector<int64_t> values;
  uint64_t state = 0x9e3779b97f4a7c15u;  // deterministic LCG, no <random>
  int64_t total = 0;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005u + 1442695040888963407u;
    int64_t value = static_cast<int64_t>((state >> 33) % 2000000);
    values.push_back(value);
    total += value;
    hist.Record(value);
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(hist.count(), 5000);
  EXPECT_EQ(hist.sum(), total);
  EXPECT_EQ(hist.max(), values.back());
  for (double p : {1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    if (rank < 1) rank = 1;
    if (rank > values.size()) rank = values.size();
    int64_t exact = values[rank - 1];
    int64_t estimate = hist.Percentile(p);
    // Never below the exact percentile, at most one bucket width above.
    EXPECT_GE(estimate, exact) << "p" << p;
    EXPECT_LE(estimate, exact + exact / 16 + 1) << "p" << p;
  }
  EXPECT_EQ(obs::LocalHistogram().Percentile(50), 0);  // empty histogram
}

TEST(HistogramTest, ShardMergeMatchesSequentialRecording) {
  // Recording into per-thread shards and merging must be observationally
  // identical to recording everything into one histogram — the property
  // that makes parallel runs report the same percentiles as serial runs.
  obs::LocalHistogram shards[3];
  obs::LocalHistogram sequential;
  uint64_t state = 12345;
  for (int i = 0; i < 3000; ++i) {
    state = state * 2862933555777941757u + 3037000493u;
    int64_t value = static_cast<int64_t>((state >> 40) % 500000);
    shards[i % 3].Record(value);
    sequential.Record(value);
  }
  obs::LocalHistogram merged;
  for (const obs::LocalHistogram& shard : shards) merged.MergeFrom(shard);
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_EQ(merged.sum(), sequential.sum());
  EXPECT_EQ(merged.max(), sequential.max());
  EXPECT_EQ(merged.buckets(), sequential.buckets());
  for (double p : {50.0, 90.0, 99.0}) {
    EXPECT_EQ(merged.Percentile(p), sequential.Percentile(p)) << "p" << p;
  }
  // Merging an empty shard is a no-op, even into an empty histogram.
  obs::LocalHistogram empty;
  empty.MergeFrom(obs::LocalHistogram());
  EXPECT_EQ(empty.count(), 0);
  EXPECT_TRUE(empty.buckets().empty());
}

// ---------------------------------------------------------------------------
// Phase drift
// ---------------------------------------------------------------------------

TEST(PhaseDriftTest, OvershootRecordedNotSilentlyClamped) {
  PhaseBreakdown phases;
  phases.match_us = 600;
  phases.extract_us = 500;
  phases.total_us = 1000;  // parallel shards summed past the wall clock
  phases.FinalizeDrift();
  EXPECT_EQ(phases.phase_drift_us, 100);
  EXPECT_EQ(phases.OthersUs(), 0);

  PhaseBreakdown under;
  under.match_us = 300;
  under.total_us = 1000;
  under.FinalizeDrift();
  EXPECT_EQ(under.phase_drift_us, 0);
  EXPECT_EQ(under.OthersUs(), 700);
}

// ---------------------------------------------------------------------------
// Trace recorder
// ---------------------------------------------------------------------------

TEST(TraceTest, DisabledRecorderBuffersAndWritesNothing) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  ASSERT_FALSE(recorder.started());
  recorder.ClearForTesting();
  {
    DELEX_TRACE_SPAN("dead_span", 1);
    DELEX_TRACE_SPAN("dead_span_2");
  }
  EXPECT_EQ(recorder.BufferedEventCount(), 0);
  EXPECT_FALSE(obs::TraceRecorder::enabled());
  // Stop without Start writes no file.
  EXPECT_TRUE(recorder.Stop().ok());
}

TEST(TraceTest, RecordsWellFormedChromeTraceJson) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.ClearForTesting();
  std::string path = TempPath("delex-obs-trace-basic.json");
  std::filesystem::remove(path);
  ASSERT_TRUE(recorder.Start(path).ok());
  // A second Start while recording is rejected (first session wins).
  EXPECT_FALSE(recorder.Start(TempPath("other.json")).ok());
  {
    DELEX_TRACE_SPAN("outer", 7);
    { DELEX_TRACE_SPAN("inner", 8, "io"); }
    { DELEX_TRACE_SPAN("inner", 9, "io"); }
  }
  ASSERT_TRUE(recorder.Stop().ok());

  JsonValue trace = MustParse(ReadFile(path));
  ASSERT_TRUE(trace.Has("traceEvents"));
  const auto& events = trace.At("traceEvents").array;
  ASSERT_EQ(events.size(), 3u);
  int outer_seen = 0;
  for (const JsonValue& event : events) {
    EXPECT_EQ(event.At("ph").string, "X");
    EXPECT_TRUE(event.Has("name"));
    EXPECT_TRUE(event.Has("ts"));
    EXPECT_TRUE(event.Has("dur"));
    EXPECT_TRUE(event.Has("pid"));
    EXPECT_TRUE(event.Has("tid"));
    EXPECT_GE(event.At("dur").number, 0);
    if (event.At("name").string == "outer") {
      ++outer_seen;
      EXPECT_EQ(event.At("args").At("id").number, 7);
      EXPECT_EQ(event.At("cat").string, "delex");
    } else {
      EXPECT_EQ(event.At("cat").string, "io");
    }
  }
  EXPECT_EQ(outer_seen, 1);
  EXPECT_EQ(trace.At("otherData").At("dropped_events").number, 0);
  std::filesystem::remove(path);
}

TEST(TraceTest, SpansNestProperlyPerThread) {
  // Complete events from RAII spans on one thread must either nest or be
  // disjoint — a partial overlap would mean broken begin/end pairing.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.ClearForTesting();
  std::string path = TempPath("delex-obs-trace-nest.json");
  ASSERT_TRUE(recorder.Start(path).ok());

  ProgramSpec spec = []() {
    auto spec = MakeProgram("chair");
    EXPECT_TRUE(spec.ok());
    return std::move(spec).ValueOrDie();
  }();
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 6;
  std::vector<Snapshot> series = GenerateSeries(profile, 3, 77);
  DelexEngine::Options options;
  options.work_dir = FreshDir("trace-nest");
  options.num_threads = 2;
  DelexEngine engine(spec.plan, options);
  ASSERT_TRUE(engine.Init().ok());
  MatcherAssignment st =
      MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kST);
  for (size_t i = 0; i < series.size(); ++i) {
    ASSERT_TRUE(engine
                    .RunSnapshot(series[i], i > 0 ? &series[i - 1] : nullptr,
                                 st, nullptr)
                    .ok());
  }
  ASSERT_TRUE(recorder.Stop().ok());

  JsonValue trace = MustParse(ReadFile(path));
  std::map<double, std::vector<std::pair<double, double>>> by_tid;
  for (const JsonValue& event : trace.At("traceEvents").array) {
    by_tid[event.At("tid").number].push_back(
        {event.At("ts").number,
         event.At("ts").number + event.At("dur").number});
  }
  EXPECT_GE(by_tid.size(), 1u);
  size_t total = 0;
  for (const auto& [tid, spans] : by_tid) {
    total += spans.size();
    for (size_t i = 0; i < spans.size(); ++i) {
      for (size_t j = i + 1; j < spans.size(); ++j) {
        auto [s1, e1] = spans[i];
        auto [s2, e2] = spans[j];
        bool disjoint = e1 <= s2 || e2 <= s1;
        bool nested = (s1 <= s2 && e2 <= e1) || (s2 <= s1 && e1 <= e2);
        EXPECT_TRUE(disjoint || nested)
            << "partial overlap on tid " << tid << ": [" << s1 << "," << e1
            << ") vs [" << s2 << "," << e2 << ")";
      }
    }
  }
  EXPECT_GT(total, 0u);
  std::filesystem::remove(path);
}

/// Counts events named `name` currently buffered in the recorder.
int64_t CountSpans(const char* name) {
  int64_t count = 0;
  for (const obs::TraceEvent& event :
       obs::TraceRecorder::Global().SnapshotEvents()) {
    if (std::string_view(event.name) == name) ++count;
  }
  return count;
}

TEST(TraceTest, EvalPageSpanCountMatchesNonIdenticalPages) {
  // The acceptance invariant: worker ("eval_page") spans == pages −
  // pages_identical, because the whole-page fast path bypasses EvalPage.
  // Each evaluated page commits alone ("commit_page"); identical pages
  // commit a run at a time ("commit_run").
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.ClearForTesting();
  std::string path = TempPath("delex-obs-trace-count.json");
  ASSERT_TRUE(recorder.Start(path).ok());

  ProgramSpec spec = []() {
    auto spec = MakeProgram("chair");
    EXPECT_TRUE(spec.ok());
    return std::move(spec).ValueOrDie();
  }();
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 8;
  profile.identical_fraction = 0.8;
  std::vector<Snapshot> series = GenerateSeries(profile, 3, 99);
  DelexEngine::Options options;
  options.work_dir = FreshDir("trace-count");
  options.num_threads = 2;
  DelexEngine engine(spec.plan, options);
  ASSERT_TRUE(engine.Init().ok());
  MatcherAssignment ud =
      MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kUD);

  int64_t total_pages = 0;
  int64_t total_identical = 0;
  int64_t total_runs = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    RunStats stats;
    ASSERT_TRUE(engine
                    .RunSnapshot(series[i], i > 0 ? &series[i - 1] : nullptr,
                                 ud, &stats)
                    .ok());
    total_pages += stats.pages;
    total_identical += stats.pages_identical;
    total_runs += stats.identical_runs;
  }
  EXPECT_GT(total_identical, 0) << "corpus produced no identical pages";
  EXPECT_GT(total_runs, 0);
  EXPECT_LE(total_runs, total_identical);
  EXPECT_EQ(CountSpans("eval_page"), total_pages - total_identical);
  EXPECT_EQ(CountSpans("commit_page"), total_pages - total_identical);
  EXPECT_EQ(CountSpans("commit_run"), total_runs);
  EXPECT_EQ(CountSpans("run_snapshot"), static_cast<int64_t>(series.size()));
  ASSERT_TRUE(recorder.Stop().ok());
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------------

TEST(RunReportTest, SchemaV6CarriesResourcesBlock) {
  obs::RunReportMeta meta;
  meta.solution = "Delex";
  RunStats stats;
  obs::OptimizerReport optimizer;

  JsonValue line = MustParse(obs::RunReportLine(meta, stats, optimizer));
  ASSERT_TRUE(line.Has("resources"));
  const JsonValue& res = line.At("resources");
  EXPECT_GT(res.At("rss_bytes").number, 0);
  EXPECT_GT(res.At("peak_rss_bytes").number, 0);
  EXPECT_TRUE(res.Has("tracked_bytes"));
  EXPECT_TRUE(res.Has("tracked_peak_bytes"));
  ASSERT_EQ(res.At("subsystems").array.size(),
            static_cast<size_t>(obs::kMemTagCount));
  // One row per MemTag, in enum order, peaks never below currents.
  EXPECT_EQ(res.At("subsystems").array[0].At("tag").string, "snapshot");
  for (const JsonValue& sub : res.At("subsystems").array) {
    EXPECT_GE(sub.At("peak_bytes").number, sub.At("current_bytes").number);
  }
}

TEST(RunReportTest, LineCarriesSchemaPhasesAndOptimizer) {
  obs::RunReportMeta meta;
  meta.solution = "Delex";
  meta.tag = "unit-test";
  meta.snapshot_index = 2;
  meta.warmup = false;
  meta.num_threads = 4;
  meta.fast_path_enabled = true;

  RunStats stats;
  stats.pages = 10;
  stats.pages_identical = 3;
  stats.result_tuples = 17;
  stats.units.resize(2);
  stats.units[0].match_us = 100;
  stats.units[0].extract_us = 200;
  stats.units[1].copy_us = 50;
  stats.phases.match_us = 100;
  stats.phases.extract_us = 200;
  stats.phases.copy_us = 50;
  stats.phases.total_us = 400;
  stats.phases.FinalizeDrift();

  obs::OptimizerReport optimizer;
  optimizer.has_optimizer = true;
  optimizer.unit_matchers = {"ST", "RU"};
  optimizer.predicted_unit_us = {123.5, 4.25};
  optimizer.predicted_total_us = 127.75;

  JsonValue line = MustParse(obs::RunReportLine(meta, stats, optimizer));
  EXPECT_EQ(obs::kRunReportSchemaVersion, 11);
  EXPECT_EQ(line.At("schema_version").number, 11);
  EXPECT_EQ(line.At("solution").string, "Delex");
  EXPECT_EQ(line.At("tag").string, "unit-test");
  EXPECT_EQ(line.At("threads").number, 4);
  EXPECT_TRUE(line.At("fast_path").boolean);
  EXPECT_EQ(line.At("pages_identical").number, 3);
  EXPECT_EQ(line.At("phases").At("others_us").number, 50);
  EXPECT_EQ(line.At("phases").At("phase_drift_us").number, 0);
  EXPECT_EQ(line.At("optimizer").At("assignment").string, "ST,RU");
  EXPECT_EQ(line.At("optimizer").At("predicted_total_us").number, 127.75);
  ASSERT_EQ(line.At("units").array.size(), 2u);
  const JsonValue& unit0 = line.At("units").array[0];
  EXPECT_EQ(unit0.At("matcher").string, "ST");
  EXPECT_EQ(unit0.At("predicted_us").number, 123.5);
  EXPECT_EQ(unit0.At("actual_us").number, 300);
  // v11: the run's counts live in the line's own blocks; the registry's
  // "counters", the profiler's "profile" and the "histograms" gate are gone.
  EXPECT_FALSE(line.Has("counters"));
  EXPECT_FALSE(line.Has("histograms"));
  ASSERT_TRUE(line.Has("resources"));
  EXPECT_FALSE(line.At("resources").Has("profile"));
  EXPECT_TRUE(line.Has("latency"));
}

TEST(RunReportTest, ShardSummariesEmittedWhenSharded) {
  obs::RunReportMeta meta;
  meta.solution = "Delex";
  meta.snapshot_index = 1;
  RunStats stats;
  stats.pages = 8;
  obs::OptimizerReport optimizer;

  // Unsharded: num_shards present (v4) but no shards array.
  JsonValue line = MustParse(obs::RunReportLine(meta, stats, optimizer));
  EXPECT_EQ(line.At("schema_version").number, obs::kRunReportSchemaVersion);
  EXPECT_EQ(line.At("num_shards").number, 1);
  EXPECT_FALSE(line.Has("shards"));

  meta.num_shards = 2;
  meta.shards.resize(2);
  meta.shards[0].shard = 0;
  meta.shards[0].pages = 5;
  meta.shards[0].pages_identical = 2;
  meta.shards[0].result_tuples = 11;
  meta.shards[0].total_us = 900;
  meta.shards[0].assignment = "ST,RU";  // v5: per-shard plan + drift
  meta.shards[0].cost_drift = 0.125;
  meta.shards[1].shard = 1;
  meta.shards[1].pages = 3;
  meta.shards[1].pages_identical = 1;
  meta.shards[1].result_tuples = 7;
  meta.shards[1].total_us = 700;
  meta.shards[1].reuse_corrupt_drops = 2;
  line = MustParse(obs::RunReportLine(meta, stats, optimizer));
  EXPECT_EQ(line.At("num_shards").number, 2);
  ASSERT_EQ(line.At("shards").array.size(), 2u);
  const JsonValue& shard0 = line.At("shards").array[0];
  EXPECT_EQ(shard0.At("shard").number, 0);
  EXPECT_EQ(shard0.At("pages").number, 5);
  EXPECT_EQ(shard0.At("result_tuples").number, 11);
  EXPECT_EQ(shard0.At("assignment").string, "ST,RU");
  EXPECT_EQ(shard0.At("cost_drift").number, 0.125);
  const JsonValue& shard1 = line.At("shards").array[1];
  EXPECT_EQ(shard1.At("total_us").number, 700);
  EXPECT_EQ(shard1.At("reuse_corrupt_drops").number, 2);
  // Unavailable v5 fields are omitted, not emitted as sentinels.
  EXPECT_FALSE(shard1.Has("assignment"));
  EXPECT_FALSE(shard1.Has("cost_drift"));
}

TEST(RunReportTest, WriterAppendsOneParseableLinePerRun) {
  std::string path = TempPath("delex-obs-report.jsonl");
  std::filesystem::remove(path);
  obs::RunReportWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  obs::RunReportMeta meta;
  meta.solution = "No-reuse";
  RunStats stats;
  obs::OptimizerReport no_opt;
  ASSERT_TRUE(writer.Append(obs::RunReportLine(meta, stats, no_opt)).ok());
  meta.snapshot_index = 2;
  ASSERT_TRUE(writer.Append(obs::RunReportLine(meta, stats, no_opt)).ok());
  ASSERT_TRUE(writer.Close().ok());

  std::ifstream file(path);
  std::string line;
  int lines = 0;
  while (std::getline(file, line)) {
    JsonValue parsed = MustParse(line);
    EXPECT_FALSE(parsed.Has("optimizer"));  // baseline: no plan chosen
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  std::filesystem::remove(path);
}

/// Runs the Delex solution over a small series with run reports on,
/// returning the parsed JSONL lines.
std::vector<JsonValue> ReportedSeries(int num_threads, bool fast_path,
                                      const std::string& tag) {
  std::string path = TempPath("delex-obs-series-" + tag + ".jsonl");
  std::filesystem::remove(path);
  SetStatsJsonPath(path);

  ProgramSpec spec = []() {
    auto spec = MakeProgram("chair");
    EXPECT_TRUE(spec.ok());
    return std::move(spec).ValueOrDie();
  }();
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 8;
  profile.identical_fraction = 0.7;
  std::vector<Snapshot> series = GenerateSeries(profile, 3, 4242);

  DelexSolutionOptions options;
  options.num_threads = num_threads;
  options.disable_page_fast_path = !fast_path;
  auto delex = MakeDelexSolution(spec, FreshDir("series-" + tag), options);
  auto run = RunSeries(delex.get(), series, /*keep_results=*/false, tag);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  SetStatsJsonPath("");

  std::vector<JsonValue> lines;
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) lines.push_back(MustParse(line));
  std::filesystem::remove(path);
  return lines;
}

TEST(RunReportTest, SeriesReportsPredictedAndMeasuredPerUnit) {
  std::vector<JsonValue> lines = ReportedSeries(1, true, "pred");
  ASSERT_EQ(lines.size(), 3u);  // warm-up + 2 reported snapshots
  EXPECT_TRUE(lines[0].At("warmup").boolean);
  EXPECT_FALSE(lines[0].Has("optimizer"));  // no previous snapshot
  for (size_t i = 1; i < lines.size(); ++i) {
    const JsonValue& line = lines[i];
    EXPECT_FALSE(line.At("warmup").boolean);
    EXPECT_EQ(line.At("tag").string, "pred");
    ASSERT_TRUE(line.Has("optimizer"));
    EXPECT_FALSE(line.At("optimizer").At("assignment").string.empty());
    EXPECT_GE(line.At("optimizer").At("predicted_total_us").number, 0);
    ASSERT_GT(line.At("units").array.size(), 0u);
    for (const JsonValue& unit : line.At("units").array) {
      // The acceptance fields: chosen matcher, predicted cost, measured
      // match/extract/copy microseconds — present and finite on every unit.
      EXPECT_FALSE(unit.At("matcher").string.empty());
      ASSERT_TRUE(unit.Has("predicted_us"));
      EXPECT_NE(unit.At("predicted_us").kind, JsonValue::kNull);
      EXPECT_GE(unit.At("predicted_us").number, 0);
      EXPECT_GE(unit.At("match_us").number, 0);
      EXPECT_GE(unit.At("extract_us").number, 0);
      EXPECT_GE(unit.At("copy_us").number, 0);
      EXPECT_GE(unit.At("actual_us").number, 0);
    }
  }
}

/// Timing-independent projection of a report line, for determinism checks.
struct ReportFingerprint {
  double pages = 0;
  double identical = 0;
  double tuples = 0;
  std::vector<std::pair<double, double>> unit_tuples;  // (input, output)

  bool operator==(const ReportFingerprint& other) const = default;
};

ReportFingerprint Fingerprint(const JsonValue& line) {
  ReportFingerprint fp;
  fp.pages = line.At("pages").number;
  fp.identical = line.At("pages_identical").number;
  fp.tuples = line.At("result_tuples").number;
  for (const JsonValue& unit : line.At("units").array) {
    fp.unit_tuples.push_back(
        {unit.At("input_tuples").number, unit.At("output_tuples").number});
  }
  return fp;
}

TEST(RunReportTest, CountersDeterministicAcrossThreadCounts) {
  std::vector<JsonValue> t1 = ReportedSeries(1, true, "t1");
  std::vector<JsonValue> t2 = ReportedSeries(2, true, "t2");
  std::vector<JsonValue> t8 = ReportedSeries(8, true, "t8");
  ASSERT_EQ(t1.size(), t2.size());
  ASSERT_EQ(t1.size(), t8.size());
  for (size_t i = 0; i < t1.size(); ++i) {
    ReportFingerprint fp = Fingerprint(t1[i]);
    EXPECT_TRUE(fp == Fingerprint(t2[i])) << "snapshot " << i;
    EXPECT_TRUE(fp == Fingerprint(t8[i])) << "snapshot " << i;
    EXPECT_EQ(t1[i].At("threads").number, 1);
    EXPECT_EQ(t2[i].At("threads").number, 2);
    EXPECT_EQ(t8[i].At("threads").number, 8);
  }
}

TEST(RunReportTest, SchemaV2CarriesLatencyFastPathAndTraceBlocks) {
  obs::RunReportMeta meta;
  meta.solution = "Delex";

  RunStats stats;
  stats.pages = 4;
  stats.fast_path_demote_result_cache = 2;
  stats.fast_path_demote_missing_group = 1;
  stats.fast_path_decode_copy_groups = 3;
  for (int64_t v : {10, 20, 30, 40}) stats.page_eval_hist.Record(v);
  stats.match_hist[static_cast<size_t>(MatcherKind::kUD)].Record(5);
  stats.match_hist[static_cast<size_t>(MatcherKind::kST)].Record(7);
  stats.match_hist[static_cast<size_t>(MatcherKind::kRU)].Record(9);
  stats.units.resize(1);
  for (int64_t v : {100, 200}) stats.units[0].extract_hist.Record(v);

  obs::OptimizerReport no_opt;
  JsonValue line = MustParse(obs::RunReportLine(meta, stats, no_opt));
  EXPECT_EQ(line.At("schema_version").number, obs::kRunReportSchemaVersion);

  const JsonValue& fast = line.At("fast_path_counters");
  EXPECT_EQ(fast.At("demote_result_cache").number, 2);
  EXPECT_EQ(fast.At("demote_missing_group").number, 1);
  EXPECT_EQ(fast.At("decode_copy_groups").number, 3);

  // The acceptance block: p50/p90/p99/max for page-eval and per-matcher.
  const JsonValue& latency = line.At("latency");
  const JsonValue& page_eval = latency.At("page_eval_us");
  EXPECT_EQ(page_eval.At("count").number, 4);
  EXPECT_EQ(page_eval.At("mean").number, 25);
  EXPECT_EQ(page_eval.At("p50").number, 20);  // exact: bucket-aligned values
  EXPECT_EQ(page_eval.At("p90").number, 40);
  EXPECT_EQ(page_eval.At("p99").number, 40);
  EXPECT_EQ(page_eval.At("max").number, 40);
  EXPECT_EQ(latency.At("match_ud_us").At("count").number, 1);
  EXPECT_EQ(latency.At("match_ud_us").At("max").number, 5);
  EXPECT_EQ(latency.At("match_st_us").At("max").number, 7);
  EXPECT_EQ(latency.At("match_ru_us").At("max").number, 9);

  const JsonValue& trace = line.At("trace");
  EXPECT_FALSE(trace.At("recording").boolean);
  EXPECT_EQ(trace.At("dropped_events").number, 0);

  ASSERT_EQ(line.At("units").array.size(), 1u);
  const JsonValue& unit = line.At("units").array[0];
  EXPECT_EQ(unit.At("extract_count").number, 2);
  EXPECT_GE(unit.At("extract_p50_us").number, 100);
  EXPECT_LE(unit.At("extract_p50_us").number, 107);  // ≤6.25 % above exact
  EXPECT_EQ(unit.At("extract_max_us").number, 200);
  EXPECT_GE(unit.At("extract_p99_us").number, unit.At("extract_p90_us").number);
}

TEST(RunReportTest, LatencyCountsDeterministicAcrossThreadsAndFastPath) {
  for (bool fast_path : {true, false}) {
    const std::string fp_tag = fast_path ? "on" : "off";
    std::vector<std::vector<JsonValue>> runs;
    for (int threads : {1, 2, 8}) {
      runs.push_back(ReportedSeries(threads, fast_path,
                                    "lat-" + fp_tag + std::to_string(threads)));
      ASSERT_EQ(runs.back().size(), runs.front().size());
    }
    for (size_t i = 0; i < runs[0].size(); ++i) {
      for (size_t r = 0; r < runs.size(); ++r) {
        const JsonValue& line = runs[r][i];
        ASSERT_TRUE(line.Has("latency")) << "snapshot " << i;
        // EvalPage runs exactly once per non-identical page, on any
        // thread count: the merged histogram count is exact — the
        // cross-thread shard merge loses and invents nothing. (Per-unit
        // extract counts are NOT compared: the optimizer picks matchers
        // from measured timings, so extractor-call counts can legitimately
        // differ run to run even though result tuples never do.)
        const JsonValue& page_eval = line.At("latency").At("page_eval_us");
        EXPECT_EQ(page_eval.At("count").number,
                  line.At("pages").number - line.At("pages_identical").number)
            << "snapshot " << i << " run " << r;
        if (!fast_path) {
          EXPECT_EQ(page_eval.At("count").number, line.At("pages").number);
        }
        EXPECT_LE(page_eval.At("p50").number, page_eval.At("p90").number);
        EXPECT_LE(page_eval.At("p90").number, page_eval.At("p99").number);
        EXPECT_LE(page_eval.At("p99").number, page_eval.At("max").number);
        EXPECT_LE(page_eval.At("mean").number, page_eval.At("max").number);
        for (const JsonValue& unit : line.At("units").array) {
          ASSERT_TRUE(unit.Has("extract_count")) << "snapshot " << i;
          EXPECT_LE(unit.At("extract_p50_us").number,
                    unit.At("extract_p90_us").number);
          EXPECT_LE(unit.At("extract_p90_us").number,
                    unit.At("extract_p99_us").number);
          EXPECT_LE(unit.At("extract_p99_us").number,
                    unit.At("extract_max_us").number);
        }
      }
    }
  }
}

TEST(RunReportTest, ResultCountersMatchAcrossFastPathSettings) {
  std::vector<JsonValue> on = ReportedSeries(1, true, "fp-on");
  std::vector<JsonValue> off = ReportedSeries(1, false, "fp-off");
  ASSERT_EQ(on.size(), off.size());
  bool saw_identical = false;
  for (size_t i = 0; i < on.size(); ++i) {
    // Result counts agree; the fast path only changes who does the work.
    EXPECT_EQ(on[i].At("result_tuples").number,
              off[i].At("result_tuples").number);
    EXPECT_EQ(on[i].At("pages").number, off[i].At("pages").number);
    EXPECT_EQ(off[i].At("pages_identical").number, 0);
    EXPECT_TRUE(on[i].At("fast_path").boolean);
    EXPECT_FALSE(off[i].At("fast_path").boolean);
    if (on[i].At("pages_identical").number > 0) saw_identical = true;
  }
  EXPECT_TRUE(saw_identical);
}

}  // namespace
}  // namespace delex
