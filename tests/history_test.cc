// Observability layer 3: the checksummed generation-history store.
// Covers the envelope framing (fixed-offset crc), run-report lines read
// back field by field, every corruption path (framing, checksum, JSON,
// missing gen, torn tail, out-of-order generations) degrading to
// Status::Corruption drops — never aborts — retention compaction, the env
// knobs, records of earlier builds (v6, v8 and v10 history bodies) still
// loading, delex_inspect's reader-stage diff, and the end-to-end
// contract: RunSeries appends one record per completed generation across
// {1,4} shards × {1,8} threads, and each record's body is byte-identical
// to that generation's run-report line.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "harness/experiment.h"
#include "harness/programs.h"
#include "obs/history.h"
#include "obs/run_report.h"
#include "obs/trace.h"

namespace delex {
namespace {

namespace fs = std::filesystem;

using obs::HistoryLoadInfo;
using obs::HistoryRecord;
using obs::HistoryStore;

fs::path FreshDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() / ("delex-history-" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Restores (or clears) one env var when the test scope ends.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

/// Wraps a raw "rec" body in a correctly checksummed envelope, the way
/// any writer of the format (old or new) frames it.
std::string FrameBody(const std::string& body) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(body)));
  return "{\"crc\":\"" + std::string(hex) + "\",\"rec\":" + body + "}";
}

/// Everything one run-report line is built from.
struct RunInputs {
  obs::RunReportMeta meta;
  RunStats stats;
  obs::OptimizerReport optimizer;
};

/// A run exercising every optional block: optimizer with audited
/// decisions, per-unit rows, per-shard rollups and the reader stage.
RunInputs FullRun(int gen) {
  RunInputs in;
  obs::RunReportMeta& meta = in.meta;
  meta.solution = "Delex";
  meta.tag = "history-test";
  meta.snapshot_index = gen;
  meta.warmup = false;
  meta.num_threads = 4;
  meta.fast_path_enabled = true;
  meta.num_shards = 2;
  meta.generation = gen;
  meta.assignment = "ST,RU";
  obs::RunReportMeta::ShardSummary s0;
  s0.shard = 0;
  s0.pages = 70;
  s0.pages_identical = 50;
  s0.result_tuples = 40;
  s0.total_us = 2200;
  s0.reuse_corrupt_drops = 4;
  s0.assignment = "ST,RU";
  s0.cost_drift = 0.25;
  obs::RunReportMeta::ShardSummary s1;
  s1.shard = 1;
  s1.pages = 50;
  s1.pages_identical = 30;
  s1.result_tuples = 24;
  s1.total_us = 1800;
  // s1 has no assignment / drift: the "unavailable" arm of the schema.
  meta.shards = {s0, s1};

  RunStats& stats = in.stats;
  stats.pages = 120;
  stats.pages_identical = 80;
  stats.result_tuples = 64;
  stats.identical_runs = 6;
  stats.reader_busy_us = 900;
  stats.reader_wait_us = 100;
  stats.phases.match_us = 1000;
  stats.phases.extract_us = 2000;
  stats.phases.copy_us = 300;
  stats.phases.opt_us = 40;
  stats.phases.capture_us = 500;
  stats.phases.total_us = 4000;
  stats.phases.phase_drift_us = 7;
  stats.fast_path_demote_result_cache = 1;
  stats.fast_path_demote_missing_group = 2;
  stats.fast_path_decode_copy_groups = 3;
  stats.reuse_corrupt_drops = 4;
  stats.units.resize(2);
  stats.units[0].match_us = 200;
  stats.units[1].extract_us = 350;

  obs::OptimizerReport& opt = in.optimizer;
  opt.has_optimizer = true;
  opt.unit_matchers = {"ST", "RU"};
  opt.predicted_unit_us = {180.5};  // unit 1 has no estimate
  opt.predicted_total_us = 3900.5;
  opt.cost_drift = 0.125;
  obs::OptimizerReport::UnitDecision d;
  d.unit = 0;
  d.winner = "ST";
  d.runner_up = "RU";
  d.margin_us = 17.5;
  d.candidate_us = {{"DN", 900.0}, {"UD", 410.0}, {"ST", 180.5}, {"RU", 198.0}};
  d.f = 0.25;
  d.m = 120;
  d.a = 1.5;
  d.l = 640;
  d.history_window = 3;
  d.source = "run";
  opt.decisions.push_back(d);
  return in;
}

/// The run-report line of FullRun(gen) — the body of its history record.
std::string FullLine(int gen) {
  RunInputs in = FullRun(gen);
  return obs::RunReportLine(in.meta, in.stats, in.optimizer);
}

/// The fields every FullRun line and the old FullRecord(3) shape share.
void ExpectCommonFields(const HistoryRecord& out) {
  EXPECT_EQ(out.solution, "Delex");
  EXPECT_EQ(out.tag, "history-test");
  EXPECT_FALSE(out.warmup);
  EXPECT_EQ(out.threads, 4);
  EXPECT_EQ(out.num_shards, 2);
  EXPECT_TRUE(out.fast_path);
  EXPECT_EQ(out.assignment, "ST,RU");
  EXPECT_EQ(out.pages, 120);
  EXPECT_EQ(out.pages_identical, 80);
  EXPECT_EQ(out.result_tuples, 64);
  EXPECT_EQ(out.match_us, 1000);
  EXPECT_EQ(out.extract_us, 2000);
  EXPECT_EQ(out.copy_us, 300);
  EXPECT_EQ(out.opt_us, 40);
  EXPECT_EQ(out.capture_us, 500);
  EXPECT_EQ(out.total_us, 4000);
  EXPECT_EQ(out.others_us, 160);
  EXPECT_EQ(out.phase_drift_us, 7);
  EXPECT_EQ(out.demote_result_cache, 1);
  EXPECT_EQ(out.demote_missing_group, 2);
  EXPECT_EQ(out.decode_copy_groups, 3);
  EXPECT_EQ(out.reuse_corrupt_drops, 4);

  EXPECT_TRUE(out.has_optimizer);
  EXPECT_DOUBLE_EQ(out.predicted_total_us, 3900.5);
  EXPECT_DOUBLE_EQ(out.cost_drift, 0.125);
  ASSERT_EQ(out.decisions.size(), 1u);
  EXPECT_EQ(out.decisions[0].unit, 0);
  EXPECT_EQ(out.decisions[0].winner, "ST");
  EXPECT_EQ(out.decisions[0].runner_up, "RU");
  EXPECT_DOUBLE_EQ(out.decisions[0].margin_us, 17.5);
  ASSERT_EQ(out.decisions[0].candidate_us.size(), 4u);
  EXPECT_EQ(out.decisions[0].candidate_us[2].first, "ST");
  EXPECT_DOUBLE_EQ(out.decisions[0].candidate_us[2].second, 180.5);
  EXPECT_DOUBLE_EQ(out.decisions[0].f, 0.25);
  EXPECT_DOUBLE_EQ(out.decisions[0].m, 120);
  EXPECT_DOUBLE_EQ(out.decisions[0].a, 1.5);
  EXPECT_DOUBLE_EQ(out.decisions[0].l, 640);
  EXPECT_EQ(out.decisions[0].history_window, 3);

  ASSERT_EQ(out.units.size(), 2u);
  EXPECT_EQ(out.units[0].matcher, "ST");
  EXPECT_DOUBLE_EQ(out.units[0].predicted_us, 180.5);
  EXPECT_DOUBLE_EQ(out.units[0].actual_us, 200.0);
  EXPECT_EQ(out.units[1].matcher, "RU");
  EXPECT_DOUBLE_EQ(out.units[1].predicted_us, -1);  // omitted when < 0
  EXPECT_DOUBLE_EQ(out.units[1].actual_us, 350.0);

  ASSERT_EQ(out.shards.size(), 2u);
  EXPECT_EQ(out.shards[0].shard, 0);
  EXPECT_EQ(out.shards[0].pages, 70);
  EXPECT_EQ(out.shards[0].assignment, "ST,RU");
  EXPECT_DOUBLE_EQ(out.shards[0].cost_drift, 0.25);
  EXPECT_EQ(out.shards[1].shard, 1);
  EXPECT_EQ(out.shards[1].total_us, 1800);
  EXPECT_EQ(out.shards[1].assignment, "");
  EXPECT_DOUBLE_EQ(out.shards[1].cost_drift, -1);
}

/// Runs a delex_inspect command line and returns its stdout.
std::string InspectOutput(const std::string& args) {
  std::string cmd = std::string(DELEX_INSPECT_BIN) + " " + args;
  std::string out;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  EXPECT_EQ(pclose(pipe), 0) << cmd;
  return out;
}

TEST(HistoryLine, EnvelopeHasFixedOffsetChecksum) {
  const std::string body = FullLine(3);
  std::string line = HistoryStore::FrameLine(body);
  ASSERT_GE(line.size(), 35u);
  EXPECT_EQ(line.substr(0, 8), "{\"crc\":\"");
  EXPECT_EQ(line.substr(24, 8), "\",\"rec\":");
  EXPECT_EQ(line.back(), '}');
  // The hex field at [8,24) is Fnv1a64 of the rec bytes at [32,len-1) —
  // the exact contract ci/check.sh validates with Python string slicing —
  // and those bytes are the run-report line, verbatim.
  EXPECT_EQ(line.substr(32, line.size() - 33), body);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(body)));
  EXPECT_EQ(line.substr(8, 16), hex);
}

TEST(HistoryLine, RoundTripsEveryField) {
  std::string line = HistoryStore::FrameLine(FullLine(7));
  HistoryRecord out;
  ASSERT_TRUE(HistoryStore::ParseLine(line, &out).ok());

  EXPECT_EQ(out.gen, 7);
  ExpectCommonFields(out);
  EXPECT_EQ(out.decisions[0].source, "run");
  EXPECT_EQ(out.reader_busy_us, 900);
  EXPECT_EQ(out.reader_wait_us, 100);
  EXPECT_EQ(out.identical_runs, 6);
  EXPECT_EQ(out.trace_dropped_events,
            obs::TraceRecorder::Global().DroppedEventCount());
  EXPECT_TRUE(out.has_resources);  // every run-report line has one (v6)
  EXPECT_EQ(out.raw, line);
}

TEST(HistoryLine, WarmupRecordOmitsOptimizerBlock) {
  obs::RunReportMeta meta;
  meta.solution = "Delex";
  meta.warmup = true;
  meta.generation = 1;
  meta.assignment = "DN,DN";
  RunStats stats;
  stats.units.resize(2);
  obs::OptimizerReport optimizer;
  optimizer.unit_matchers = {"DN", "DN"};  // executed, not chosen
  std::string line =
      HistoryStore::FrameLine(obs::RunReportLine(meta, stats, optimizer));
  EXPECT_EQ(line.find("\"optimizer\""), std::string::npos);
  HistoryRecord out;
  ASSERT_TRUE(HistoryStore::ParseLine(line, &out).ok());
  EXPECT_FALSE(out.has_optimizer);
  EXPECT_TRUE(out.warmup);
  EXPECT_EQ(out.assignment, "DN,DN");
  ASSERT_EQ(out.units.size(), 2u);
  EXPECT_EQ(out.units[0].matcher, "DN");
  EXPECT_EQ(out.units[1].matcher, "DN");
}

TEST(HistoryLine, RejectsBadFraming) {
  HistoryRecord rec;
  EXPECT_TRUE(HistoryStore::ParseLine("", &rec).IsCorruption());
  EXPECT_TRUE(HistoryStore::ParseLine("{\"gen\":1}", &rec).IsCorruption());

  std::string line = HistoryStore::FrameLine(FullLine(1));
  std::string bad_prefix = line;
  bad_prefix[2] = 'x';  // {"xrc":"... — envelope key tampered
  EXPECT_TRUE(HistoryStore::ParseLine(bad_prefix, &rec).IsCorruption());

  std::string bad_hex = line;
  bad_hex[10] = 'Z';  // not lowercase hex
  EXPECT_TRUE(HistoryStore::ParseLine(bad_hex, &rec).IsCorruption());

  std::string no_brace = line.substr(0, line.size() - 1);
  EXPECT_TRUE(HistoryStore::ParseLine(no_brace, &rec).IsCorruption());
}

TEST(HistoryLine, RejectsChecksumMismatchAndBadJson) {
  std::string line = HistoryStore::FrameLine(FullLine(2));
  std::string flipped = line;
  size_t digit = flipped.find("\"pages\":120");
  ASSERT_NE(digit, std::string::npos);
  flipped[digit + 8] = '9';  // 120 -> 920 without fixing the crc
  HistoryRecord rec;
  Status st = HistoryStore::ParseLine(flipped, &rec);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("checksum"), std::string::npos);

  // A correctly checksummed envelope whose rec is not valid JSON.
  EXPECT_TRUE(
      HistoryStore::ParseLine(FrameBody("{\"gen\":"), &rec).IsCorruption());
}

TEST(HistoryLine, RejectsMissingGeneration) {
  HistoryRecord rec;
  Status st =
      HistoryStore::ParseLine(FrameBody("{\"solution\":\"Delex\"}"), &rec);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("generation"), std::string::npos);
}

TEST(HistoryStoreTest, MissingFileIsEmptyHistoryNotError) {
  fs::path dir = FreshDir("missing");
  HistoryStore store((dir / "history.jsonl").string());
  std::vector<HistoryRecord> records;
  HistoryLoadInfo info;
  ASSERT_TRUE(store.Load(&records, &info).ok());
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(info.corrupt_dropped, 0);
  fs::remove_all(dir);
}

TEST(HistoryStoreTest, AppendLoadRoundTripsInOrder) {
  fs::path dir = FreshDir("append");
  HistoryStore store((dir / "history.jsonl").string());
  for (int gen = 1; gen <= 3; ++gen) {
    ASSERT_TRUE(store.Append(FullLine(gen)).ok());
  }
  std::vector<HistoryRecord> records;
  HistoryLoadInfo info;
  ASSERT_TRUE(store.Load(&records, &info).ok());
  ASSERT_EQ(records.size(), 3u);
  for (int gen = 1; gen <= 3; ++gen) {
    EXPECT_EQ(records[static_cast<size_t>(gen - 1)].gen, gen);
  }
  EXPECT_EQ(info.corrupt_dropped, 0);
  fs::remove_all(dir);
}

TEST(HistoryStoreTest, CorruptTailIsDroppedAndNextAppendLandsCleanly) {
  fs::path dir = FreshDir("torntail");
  std::string path = (dir / "history.jsonl").string();
  HistoryStore store(path);
  ASSERT_TRUE(store.Append(FullLine(1)).ok());

  // A crashed writer left a torn, newline-less fragment at the tail.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"crc\":\"0123456789abcdef\",\"rec\":{\"gen\":2,\"trunc";
  }

  std::vector<HistoryRecord> records;
  HistoryLoadInfo info;
  ASSERT_TRUE(store.Load(&records, &info).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].gen, 1);
  EXPECT_EQ(info.corrupt_dropped, 1);
  EXPECT_TRUE(info.first_error.IsCorruption()) << info.first_error.ToString();

  // The next Append must heal the tail: the new record starts a fresh
  // line instead of concatenating with the fragment.
  ASSERT_TRUE(store.Append(FullLine(2)).ok());
  records.clear();
  info = HistoryLoadInfo();
  ASSERT_TRUE(store.Load(&records, &info).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].gen, 1);
  EXPECT_EQ(records[1].gen, 2);
  EXPECT_EQ(info.corrupt_dropped, 1);  // the fragment is still in the file
  fs::remove_all(dir);
}

TEST(HistoryStoreTest, OutOfOrderGenerationsAreDropped) {
  fs::path dir = FreshDir("order");
  std::string path = (dir / "history.jsonl").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << HistoryStore::FrameLine(FullLine(1)) << "\n";
    out << HistoryStore::FrameLine(FullLine(3)) << "\n";
    out << HistoryStore::FrameLine(FullLine(2)) << "\n";  // regression
    out << HistoryStore::FrameLine(FullLine(3)) << "\n";  // duplicate
    out << HistoryStore::FrameLine(FullLine(4)) << "\n";
  }
  std::vector<HistoryRecord> records;
  HistoryLoadInfo info;
  ASSERT_TRUE(HistoryStore::LoadFile(path, &records, &info).ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].gen, 1);
  EXPECT_EQ(records[1].gen, 3);
  EXPECT_EQ(records[2].gen, 4);
  EXPECT_EQ(info.corrupt_dropped, 2);
  EXPECT_TRUE(info.first_error.IsCorruption());
  EXPECT_NE(info.first_error.message().find("out-of-order"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(HistoryStoreTest, RetentionCompactsToNewestRecords) {
  fs::path dir = FreshDir("retain");
  HistoryStore::Options options;
  options.retain_gens = 2;
  HistoryStore store((dir / "history.jsonl").string(), options);
  for (int gen = 1; gen <= 5; ++gen) {
    ASSERT_TRUE(store.Append(FullLine(gen)).ok());
  }
  std::vector<HistoryRecord> records;
  ASSERT_TRUE(store.Load(&records, nullptr).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].gen, 4);
  EXPECT_EQ(records[1].gen, 5);
  fs::remove_all(dir);
}

TEST(HistoryStoreTest, V6LearnerFieldsAreIgnoredOnLoad) {
  // The old FullRecord(3) in the history-only body shape, twice. First as
  // schema v6 wrote it: the optimizer block still carries "learning" and
  // "coeffs", decision inputs carry "gain"/"bias"/"samples", and every
  // record has a flat resources block.
  const std::string v6_body =
      R"({"gen":3,"solution":"Delex","tag":"history-test","warmup":false,)"
      R"("threads":4,"num_shards":2,"fast_path":true,"assignment":"ST,RU",)"
      R"("pages":120,"pages_identical":80,"result_tuples":64,)"
      R"("phases":{"match_us":1000,"extract_us":2000,"copy_us":300,)"
      R"("opt_us":40,"capture_us":500,"total_us":4000,"others_us":160,)"
      R"("phase_drift_us":7},"counters":{"demote_result_cache":1,)"
      R"("demote_missing_group":2,"decode_copy_groups":3,)"
      R"("reuse_corrupt_drops":4,"trace_dropped_events":5},)"
      R"("optimizer":{"learning":true,"predicted_total_us":3900.5,)"
      R"("cost_drift":0.125,"coeffs":[{"matcher":"ST","gain":1.25,)"
      R"("bias":40.5,"drift":0.0625,"samples":12}],)"
      R"("decisions":[{"unit":0,"winner":"ST","runner_up":"RU",)"
      R"("margin_us":17.5,"candidates":{"DN":900,"UD":410,"ST":180.5,)"
      R"("RU":198},"inputs":{"f":0.25,"m":120,"a":1.5,"l":640,"gain":1.25,)"
      R"("bias":40.5,"samples":12,"history":3}}]},)"
      R"("units":[{"matcher":"ST","predicted_us":180.5,"actual_us":200},)"
      R"({"matcher":"RU","actual_us":350}],)"
      R"("shards":[{"shard":0,"pages":70,"pages_identical":50,)"
      R"("result_tuples":40,"total_us":2200,"reuse_corrupt_drops":4,)"
      R"("assignment":"ST,RU","cost_drift":0.25},{"shard":1,"pages":50,)"
      R"("pages_identical":30,"result_tuples":24,"total_us":1800,)"
      R"("reuse_corrupt_drops":0}],)"
      R"("resources":{"rss_bytes":4096,"vm_bytes":8192,"peak_rss_bytes":4096,)"
      R"("tracked_bytes":100,"tracked_peak_bytes":200,"subsystems":[)"
      R"({"tag":"snapshot","current_bytes":100,"peak_bytes":200}],)"
      R"("profile_samples":50,"profile_lost":1,)"
      R"("top_spans":[{"span":"eval_page","self_samples":40}]}})";
  // Then exactly as the last history-only writer (schema v8 builds)
  // framed it, byte for byte: no resources block in this record.
  const std::string v8_line =
      R"({"crc":"9fb692abe4dc3578","rec":{"gen":3,"solution":"Delex","tag":)"
      R"("history-test","warmup":false,"threads":4,"num_shards":2,"fast_pat)"
      R"(h":true,"assignment":"ST,RU","pages":120,"pages_identical":80,"res)"
      R"(ult_tuples":64,"phases":{"match_us":1000,"extract_us":2000,"copy_u)"
      R"(s":300,"opt_us":40,"capture_us":500,"total_us":4000,"others_us":16)"
      R"(0,"phase_drift_us":7},"counters":{"demote_result_cache":1,"demote_)"
      R"(missing_group":2,"decode_copy_groups":3,"reuse_corrupt_drops":4,"t)"
      R"(race_dropped_events":5},"optimizer":{"predicted_total_us":3900.5,")"
      R"(cost_drift":0.125,"decisions":[{"unit":0,"winner":"ST","runner_up")"
      R"(:"RU","margin_us":17.5,"candidates":{"DN":900,"UD":410,"ST":180.5,)"
      R"("RU":198},"inputs":{"f":0.25,"m":120,"a":1.5,"l":640,"history":3}})"
      R"(]},"units":[{"matcher":"ST","predicted_us":180.5,"actual_us":200},)"
      R"({"matcher":"RU","actual_us":350}],"shards":[{"shard":0,"pages":70,)"
      R"("pages_identical":50,"result_tuples":40,"total_us":2200,"reuse_cor)"
      R"(rupt_drops":4,"assignment":"ST,RU","cost_drift":0.25},{"shard":1,")"
      R"(pages":50,"pages_identical":30,"result_tuples":24,"total_us":1800,)"
      R"("reuse_corrupt_drops":0}]}})";

  const std::string v6_line = FrameBody(v6_body);
  HistoryRecord v6;
  ASSERT_TRUE(HistoryStore::ParseLine(v6_line, &v6).ok());
  EXPECT_EQ(v6.gen, 3);
  ExpectCommonFields(v6);
  EXPECT_EQ(v6.trace_dropped_events, 5);
  EXPECT_EQ(v6.reader_busy_us, -1);  // predates the reader stage
  EXPECT_EQ(v6.decisions[0].source, "");  // predates v10
  EXPECT_EQ(v6.identical_runs, -1);
  ASSERT_TRUE(v6.has_resources);
  EXPECT_EQ(v6.resources.rss_bytes, 4096);
  EXPECT_EQ(v6.resources.vm_bytes, 8192);
  EXPECT_EQ(v6.resources.tracked_peak_bytes, 200);
  ASSERT_EQ(v6.resources.subsystems.size(), 1u);
  EXPECT_EQ(v6.resources.subsystems[0].tag, "snapshot");
  EXPECT_EQ(v6.resources.subsystems[0].peak_bytes, 200);

  HistoryRecord v8;
  ASSERT_TRUE(HistoryStore::ParseLine(v8_line, &v8).ok());
  EXPECT_EQ(v8.gen, 3);
  ExpectCommonFields(v8);
  EXPECT_EQ(v8.trace_dropped_events, 5);
  EXPECT_EQ(v8.reader_busy_us, -1);
  EXPECT_EQ(v8.reader_wait_us, -1);
  EXPECT_EQ(v8.identical_runs, -1);
  EXPECT_FALSE(v8.has_resources);
  EXPECT_EQ(v8.raw, v8_line);

  // A store holding the v6 line followed by current ones loads them all.
  fs::path dir = FreshDir("v6");
  const std::string path = (dir / "history.jsonl").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << v6_line << "\n"
        << HistoryStore::FrameLine(FullLine(4)) << "\n"
        << HistoryStore::FrameLine(FullLine(5)) << "\n";
  }
  std::vector<HistoryRecord> records;
  HistoryLoadInfo info;
  ASSERT_TRUE(HistoryStore::LoadFile(path, &records, &info).ok());
  EXPECT_EQ(info.corrupt_dropped, 0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].gen, 3);
  EXPECT_EQ(records[0].pages, 120);
  EXPECT_EQ(records[1].gen, 4);
  EXPECT_EQ(records[2].gen, 5);
  EXPECT_EQ(records[0].decisions[0].source, "");
  EXPECT_EQ(records[1].decisions[0].source, "run");

  // The offline reader answers over the mixed store; a decision's source
  // prints as "-" where the record predates it.
  EXPECT_NE(InspectOutput("decisions " + path + " 3").find("source=-"),
            std::string::npos);
  EXPECT_NE(InspectOutput("decisions " + path + " 4").find("source=run"),
            std::string::npos);
  for (const std::string& args :
       {std::string("summary"), std::string("decisions"), std::string("diff")}) {
    std::string cmd = std::string(DELEX_INSPECT_BIN) + " " + args + " " +
                      path + (args == "decisions" ? " 3" : "") + " >/dev/null";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  }
  // diff shows the reader stage next to the phases: both sides for two
  // current records, '-' for the side that predates it.
  const std::string current = InspectOutput("diff " + path);
  EXPECT_NE(current.find("reader stage:"), std::string::npos) << current;
  EXPECT_NE(current.find("  reader.busy_us          900 ->        900"),
            std::string::npos)
      << current;
  EXPECT_NE(current.find("  reader.wait_us          100 ->        100"),
            std::string::npos)
      << current;
  EXPECT_NE(current.find("  identical_runs            6 ->          6"),
            std::string::npos)
      << current;
  const std::string mixed = InspectOutput("diff " + path + " 3 4");
  EXPECT_NE(mixed.find("  reader.busy_us            - ->        900"),
            std::string::npos)
      << mixed;
  EXPECT_NE(mixed.find("  identical_runs            - ->          6"),
            std::string::npos)
      << mixed;
  fs::remove_all(dir);

  // Two records that both predate the reader stage diff as they always
  // did: no reader rows.
  fs::path old_dir = FreshDir("v6-old-pair");
  const std::string old_path = (old_dir / "history.jsonl").string();
  {
    std::string gen2_body = v6_body;
    gen2_body.replace(gen2_body.find("\"gen\":3"), 7, "\"gen\":2");
    std::ofstream out(old_path, std::ios::binary);
    out << FrameBody(gen2_body) << "\n" << v8_line << "\n";
  }
  const std::string old_pair = InspectOutput("diff " + old_path);
  EXPECT_NE(old_pair.find("diff gen 2 -> gen 3"), std::string::npos)
      << old_pair;
  EXPECT_EQ(old_pair.find("reader"), std::string::npos) << old_pair;
  fs::remove_all(old_dir);
}

TEST(HistoryStoreTest, V10CountersHistogramsAndProfileAreIgnoredOnLoad) {
  // FullRun(3) as the schema-v10 writer framed it, byte for byte, in a
  // process whose counter registry and span profiler had run: the line
  // carries the "histograms" flag, the registry's "counters" block and a
  // "resources.profile" sub-block, which v11 dropped.
  const std::string v10_line =
      R"({"crc":"368fd55a942c0fe9","rec":{"schema_version":10,"solution":"D)"
      R"(elex","tag":"history-test","snapshot":3,"warmup":false,"threads":4)"
      R"(,"fast_path":true,"histograms":true,"num_shards":2,"generation":3,)"
      R"("assignment":"ST,RU","shards":[{"shard":0,"pages":70,"pages_identi)"
      R"(cal":50,"result_tuples":40,"total_us":2200,"reuse_corrupt_drops":4)"
      R"(,"assignment":"ST,RU","cost_drift":0.25},{"shard":1,"pages":50,"pa)"
      R"(ges_identical":30,"result_tuples":24,"total_us":1800,"reuse_corrup)"
      R"(t_drops":0}],"pages":120,"pages_with_previous":0,"pages_identical")"
      R"(:80,"result_tuples":64,"raw_bytes_copied":0,"records_decoded_skipp)"
      R"(ed":0,"identical_runs":6,"reader":{"busy_us":900,"wait_us":100},"p)"
      R"(hases":{"match_us":1000,"extract_us":2000,"copy_us":300,"opt_us":4)"
      R"(0,"capture_us":500,"total_us":4000,"others_us":160,"phase_drift_us)"
      R"(":7},"io":{"reuse_read":{"bytes_read":0,"bytes_written":0,"records)"
      R"(_read":0,"records_written":0},"reuse_write":{"bytes_read":0,"bytes)"
      R"(_written":0,"records_read":0,"records_written":0}},"fast_path_coun)"
      R"(ters":{"demote_result_cache":1,"demote_missing_group":2,"decode_co)"
      R"(py_groups":3,"reuse_corrupt_drops":4},"latency":{"page_eval_us":{")"
      R"(count":4,"mean":25,"p50":20,"p90":40,"p99":40,"max":40},"match_ud_)"
      R"(us":{"count":0,"mean":0,"p50":0,"p90":0,"p99":0,"max":0},"match_st)"
      R"(_us":{"count":0,"mean":0,"p50":0,"p90":0,"p99":0,"max":0},"match_r)"
      R"(u_us":{"count":0,"mean":0,"p50":0,"p90":0,"p99":0,"max":0}},"trace)"
      R"(":{"recording":false,"dropped_events":0},"resources":{"rss_bytes":)"
      R"(3256320,"vm_bytes":6877184,"peak_rss_bytes":3284992,"tracked_bytes)"
      R"(":0,"tracked_peak_bytes":0,"subsystems":[{"tag":"snapshot","curren)"
      R"(t_bytes":0,"peak_bytes":0},{"tag":"reuse_reader","current_bytes":0)"
      R"(,"peak_bytes":0},{"tag":"result_cache","current_bytes":0,"peak_byt)"
      R"(es":0},{"tag":"thread_pool","current_bytes":0,"peak_bytes":0},{"ta)"
      R"(g":"matcher","current_bytes":0,"peak_bytes":0},{"tag":"shard","cur)"
      R"(rent_bytes":0,"peak_bytes":0},{"tag":"pipeline","current_bytes":0,)"
      R"("peak_bytes":0}],"profile":{"total_samples":14,"lost_samples":0,"t)"
      R"(op_spans":[{"span":"eval_page","self_samples":14}]}},"optimizer":{)"
      R"("assignment":"ST,RU","opt_us":40,"predicted_total_us":3900.5,"cost)"
      R"(_drift":0.125,"decisions":[{"unit":0,"winner":"ST","runner_up":"RU)"
      R"(","margin_us":17.5,"candidates":{"DN":900,"UD":410,"ST":180.5,"RU")"
      R"(:198},"inputs":{"f":0.25,"m":120,"a":1.5,"l":640,"history":3,"sour)"
      R"(ce":"run"}}]},"units":[{"unit":0,"matcher":"ST","predicted_us":180)"
      R"(.5,"actual_us":200,"match_us":200,"extract_us":0,"copy_us":0,"capt)"
      R"(ure_us":0,"input_tuples":0,"output_tuples":0,"copied_tuples":0,"ex)"
      R"(tracted_tuples":0,"matcher_calls":0,"exact_region_hits":0,"chars_e)"
      R"(xtracted":0,"trial_pages":0,"trial_us":0,"extract_count":1,"extrac)"
      R"(t_p50_us":100,"extract_p90_us":100,"extract_p99_us":100,"extract_m)"
      R"(ax_us":100},{"unit":1,"matcher":"RU","actual_us":350,"match_us":0,)"
      R"("extract_us":350,"copy_us":0,"capture_us":0,"input_tuples":0,"outp)"
      R"(ut_tuples":0,"copied_tuples":0,"extracted_tuples":0,"matcher_calls)"
      R"(":0,"exact_region_hits":0,"chars_extracted":0,"trial_pages":0,"tri)"
      R"(al_us":0,"extract_count":0,"extract_p50_us":0,"extract_p90_us":0,")"
      R"(extract_p99_us":0,"extract_max_us":0}],"counters":{"engine.fast_pa)"
      R"(th.demote_result_cache":1,"engine.reuse.corrupt_drops":4,"shard.me)"
      R"(rged.pages":120,"shard.merged.result_tuples":64,"shard.pages#shard)"
      R"(=0":70,"shard.pages#shard=1":50}}})";
  HistoryRecord v10;
  ASSERT_TRUE(HistoryStore::ParseLine(v10_line, &v10).ok());
  EXPECT_EQ(v10.raw, v10_line);
  HistoryRecord v11;
  ASSERT_TRUE(
      HistoryStore::ParseLine(HistoryStore::FrameLine(FullLine(3)), &v11).ok());
  // Every field a record keeps reads the same from both lines of the run.
  for (const HistoryRecord* rec : {&v10, &v11}) {
    EXPECT_EQ(rec->gen, 3);
    ExpectCommonFields(*rec);
    EXPECT_EQ(rec->reader_busy_us, 900);
    EXPECT_EQ(rec->reader_wait_us, 100);
    EXPECT_EQ(rec->identical_runs, 6);
    EXPECT_EQ(rec->trace_dropped_events, 0);
    ASSERT_EQ(rec->decisions.size(), 1u);
    EXPECT_EQ(rec->decisions[0].source, "run");
    ASSERT_TRUE(rec->has_resources);
    ASSERT_EQ(rec->resources.subsystems.size(),
              static_cast<size_t>(obs::kMemTagCount));
    for (int t = 0; t < obs::kMemTagCount; ++t) {
      EXPECT_EQ(rec->resources.subsystems[t].tag,
                obs::MemTagName(static_cast<obs::MemTag>(t)));
    }
  }
  // The resources block is sampled by the writing process: the v10 line's
  // own readings come back.
  EXPECT_EQ(v10.resources.rss_bytes, 3256320);
  EXPECT_EQ(v10.resources.vm_bytes, 6877184);
  EXPECT_EQ(v10.resources.peak_rss_bytes, 3284992);
  EXPECT_EQ(v10.resources.tracked_peak_bytes, 0);

  // A v10 store that v11 records extend loads whole, and the offline
  // reader answers over it.
  fs::path dir = FreshDir("v10");
  const std::string path = (dir / "history.jsonl").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << v10_line << "\n";
  }
  HistoryStore store(path);
  ASSERT_TRUE(store.Append(FullLine(4)).ok());
  std::vector<HistoryRecord> records;
  HistoryLoadInfo info;
  ASSERT_TRUE(store.Load(&records, &info).ok());
  EXPECT_EQ(info.corrupt_dropped, 0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].gen, 3);
  EXPECT_EQ(records[1].gen, 4);
  const std::string diff = InspectOutput("diff " + path);
  EXPECT_NE(diff.find("diff gen 3 -> gen 4"), std::string::npos) << diff;
  EXPECT_NE(diff.find("  reader.busy_us          900 ->        900"),
            std::string::npos)
      << diff;
  EXPECT_NE(InspectOutput("mem " + path).find("gen 3: rss=3256320"),
            std::string::npos);
  EXPECT_NE(InspectOutput("summary " + path).find("ST,RU"), std::string::npos);
  fs::remove_all(dir);
}

TEST(HistoryStoreTest, RetentionCompactionDiscardsCorruptLines) {
  fs::path dir = FreshDir("retain-heal");
  std::string path = (dir / "history.jsonl").string();
  HistoryStore::Options options;
  options.retain_gens = 10;
  HistoryStore store(path, options);
  ASSERT_TRUE(store.Append(FullLine(1)).ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "not a history line\n";
  }
  ASSERT_TRUE(store.Append(FullLine(2)).ok());
  // The compacting append rewrote the file: only verified lines remain.
  std::vector<HistoryRecord> records;
  HistoryLoadInfo info;
  ASSERT_TRUE(store.Load(&records, &info).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(info.corrupt_dropped, 0);
  fs::remove_all(dir);
}

TEST(HistoryEnv, KnobsReadFreshFromEnvironment) {
  {
    ScopedEnv history("DELEX_HISTORY", nullptr);
    ScopedEnv retain("DELEX_HISTORY_RETAIN", nullptr);
    EXPECT_TRUE(obs::HistoryEnabledFromEnv());
    EXPECT_EQ(obs::HistoryRetainFromEnv(), 0);
  }
  {
    ScopedEnv history("DELEX_HISTORY", "0");
    ScopedEnv retain("DELEX_HISTORY_RETAIN", "7");
    EXPECT_FALSE(obs::HistoryEnabledFromEnv());
    EXPECT_EQ(obs::HistoryRetainFromEnv(), 7);
  }
  {
    ScopedEnv retain("DELEX_HISTORY_RETAIN", "-3");
    EXPECT_EQ(obs::HistoryRetainFromEnv(), 0);  // nonsense clamps to off
  }
}

/// Shrinks a profile for test speed.
DatasetProfile SmallProfile(DatasetProfile profile, int pages) {
  profile.num_sources = pages;
  return profile;
}

struct EngineCase {
  int num_shards;
  int num_threads;
};

class HistoryEngineRoundTrip : public ::testing::TestWithParam<EngineCase> {};

TEST_P(HistoryEngineRoundTrip, OneRecordPerGenerationAcrossShardsThreads) {
  const EngineCase param = GetParam();
  auto spec_or = MakeProgram("talk");
  ASSERT_TRUE(spec_or.ok()) << spec_or.status().ToString();
  ProgramSpec spec = std::move(spec_or).ValueOrDie();
  std::vector<Snapshot> series =
      GenerateSeries(SmallProfile(spec.Profile(), 20), 3, /*seed=*/17);

  fs::path dir = FreshDir("engine-s" + std::to_string(param.num_shards) +
                          "-t" + std::to_string(param.num_threads));
  DelexSolutionOptions options;
  options.num_shards = param.num_shards;
  options.num_threads = param.num_threads;
  auto solution = MakeDelexSolution(spec, dir.string(), options);
  auto run = RunSeries(solution.get(), series, /*keep_results=*/false,
                       "history-test");
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  std::vector<HistoryRecord> records;
  HistoryLoadInfo info;
  ASSERT_TRUE(
      HistoryStore::LoadFile((dir / "history.jsonl").string(), &records, &info)
          .ok());
  EXPECT_EQ(info.corrupt_dropped, 0);
  ASSERT_EQ(records.size(), series.size());  // one record per generation

  for (size_t i = 0; i < records.size(); ++i) {
    const HistoryRecord& rec = records[i];
    EXPECT_EQ(rec.gen, static_cast<int>(i) + 1);  // monotone, gap-free
    EXPECT_EQ(rec.solution, "Delex");
    EXPECT_EQ(rec.tag, "history-test");
    EXPECT_EQ(rec.warmup, i == 0);
    EXPECT_EQ(rec.threads, param.num_threads);
    EXPECT_EQ(rec.num_shards, param.num_shards);
    EXPECT_FALSE(rec.assignment.empty());
    EXPECT_GT(rec.pages, 0);
    EXPECT_EQ(rec.has_optimizer, i > 0);
    // The run-report blocks history used to lack.
    EXPECT_GE(rec.reader_busy_us, 0);
    EXPECT_GE(rec.reader_wait_us, 0);
    EXPECT_GE(rec.identical_runs, 0);
    EXPECT_TRUE(rec.has_resources);
    if (i == 0) {
      // The warm-up record has no optimizer block, but its units still
      // carry the executed uniform-DN plan, so a later diff can attribute
      // matcher switches against gen 1.
      EXPECT_FALSE(rec.units.empty());
      for (const auto& unit : rec.units) {
        EXPECT_EQ(unit.matcher, "DN");
      }
    }
    if (i > 0) {
      // Optimized generations carry the decision audit (default-on) with
      // all four candidate costs per unit.
      EXPECT_FALSE(rec.decisions.empty());
      for (const auto& d : rec.decisions) {
        EXPECT_EQ(d.candidate_us.size(), 4u);
        EXPECT_FALSE(d.winner.empty());
        EXPECT_FALSE(d.runner_up.empty());
      }
    }
  }

  // The recorded stats mirror the SeriesRun's measured stats (gens 2..n
  // align with run->stats rows).
  for (size_t i = 1; i < records.size(); ++i) {
    const RunStats& stats = run->stats[i - 1];
    EXPECT_EQ(records[i].pages, stats.pages);
    EXPECT_EQ(records[i].result_tuples, stats.result_tuples);
    EXPECT_EQ(records[i].total_us, stats.phases.total_us);
    EXPECT_EQ(records[i].assignment, run->assignments[i - 1]);
  }

  // Sharded records carry one row per shard, which folds into the merged
  // totals; there are no per-shard history files.
  for (size_t i = 0; i < records.size(); ++i) {
    const HistoryRecord& rec = records[i];
    if (param.num_shards == 1) {
      EXPECT_TRUE(rec.shards.empty());
      continue;
    }
    ASSERT_EQ(rec.shards.size(), static_cast<size_t>(param.num_shards));
    int64_t pages = 0;
    int64_t tuples = 0;
    for (int k = 0; k < param.num_shards; ++k) {
      const obs::RunReportMeta::ShardSummary& row =
          rec.shards[static_cast<size_t>(k)];
      EXPECT_EQ(row.shard, k);
      EXPECT_GE(row.total_us, 0);
      EXPECT_EQ(row.assignment.empty(), i == 0) << "gen " << rec.gen;
      pages += row.pages;
      tuples += row.result_tuples;
    }
    EXPECT_EQ(pages, rec.pages);
    EXPECT_EQ(tuples, rec.result_tuples);
  }
  for (int k = 0; k < param.num_shards; ++k) {
    EXPECT_FALSE(
        fs::exists(dir / ("shard" + std::to_string(k)) / "history.jsonl"));
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    ShardThreadMatrix, HistoryEngineRoundTrip,
    ::testing::Values(EngineCase{1, 1}, EngineCase{1, 8}, EngineCase{4, 1},
                      EngineCase{4, 8}),
    [](const auto& info) {
      return "s" + std::to_string(info.param.num_shards) + "t" +
             std::to_string(info.param.num_threads);
    });

TEST(HistoryEngine, EveryBodyIsThatGenerationsRunReportLine) {
  auto spec_or = MakeProgram("talk");
  ASSERT_TRUE(spec_or.ok()) << spec_or.status().ToString();
  ProgramSpec spec = std::move(spec_or).ValueOrDie();
  std::vector<Snapshot> series =
      GenerateSeries(SmallProfile(spec.Profile(), 16), 3, /*seed=*/31);
  for (int num_shards : {1, 2}) {
    fs::path dir = FreshDir("one-record-s" + std::to_string(num_shards));
    const std::string stats_path = (dir / "stats.jsonl").string();
    SetStatsJsonPath(stats_path);
    DelexSolutionOptions options;
    options.num_shards = num_shards;
    options.num_threads = 2;
    auto solution = MakeDelexSolution(spec, (dir / "work").string(), options);
    auto run = RunSeries(solution.get(), series, /*keep_results=*/false,
                         "one-record");
    SetStatsJsonPath("");
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    std::vector<std::string> report_lines;
    std::ifstream report(stats_path);
    for (std::string line; std::getline(report, line);) {
      report_lines.push_back(line);
    }
    std::vector<HistoryRecord> records;
    HistoryLoadInfo info;
    ASSERT_TRUE(HistoryStore::LoadFile(
                    (dir / "work" / "history.jsonl").string(), &records, &info)
                    .ok());
    EXPECT_EQ(info.corrupt_dropped, 0);
    ASSERT_EQ(records.size(), series.size()) << num_shards << " shards";
    ASSERT_EQ(report_lines.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      const std::string& raw = records[i].raw;
      EXPECT_EQ(raw.substr(32, raw.size() - 33), report_lines[i])
          << num_shards << " shards, gen " << records[i].gen;
    }
    fs::remove_all(dir);
  }
}

TEST(HistoryEngine, DisabledByEnvWritesNothing) {
  ScopedEnv history("DELEX_HISTORY", "0");
  auto spec_or = MakeProgram("talk");
  ASSERT_TRUE(spec_or.ok()) << spec_or.status().ToString();
  ProgramSpec spec = std::move(spec_or).ValueOrDie();
  std::vector<Snapshot> series =
      GenerateSeries(SmallProfile(spec.Profile(), 12), 2, /*seed=*/19);
  fs::path dir = FreshDir("disabled");
  auto solution = MakeDelexSolution(spec, dir.string());
  auto run = RunSeries(solution.get(), series);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(fs::exists(dir / "history.jsonl"));
  fs::remove_all(dir);
}

TEST(HistoryEngine, RetentionEnvCompactsEngineHistory) {
  ScopedEnv retain("DELEX_HISTORY_RETAIN", "2");
  auto spec_or = MakeProgram("talk");
  ASSERT_TRUE(spec_or.ok()) << spec_or.status().ToString();
  ProgramSpec spec = std::move(spec_or).ValueOrDie();
  std::vector<Snapshot> series =
      GenerateSeries(SmallProfile(spec.Profile(), 12), 4, /*seed=*/23);
  fs::path dir = FreshDir("retain-env");
  auto solution = MakeDelexSolution(spec, dir.string());
  auto run = RunSeries(solution.get(), series);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  std::vector<HistoryRecord> records;
  ASSERT_TRUE(
      HistoryStore::LoadFile((dir / "history.jsonl").string(), &records,
                             nullptr)
          .ok());
  ASSERT_EQ(records.size(), 2u);  // newest two of four generations
  EXPECT_EQ(records[0].gen, 3);
  EXPECT_EQ(records[1].gen, 4);
  fs::remove_all(dir);
}

TEST(HistoryEngine, CorruptMergedStoreDegradesAndRecovers) {
  // An engine run over a store with a torn tail must still append its
  // record cleanly — telemetry degrades (drops the fragment), the run
  // itself never fails.
  auto spec_or = MakeProgram("talk");
  ASSERT_TRUE(spec_or.ok()) << spec_or.status().ToString();
  ProgramSpec spec = std::move(spec_or).ValueOrDie();
  std::vector<Snapshot> series =
      GenerateSeries(SmallProfile(spec.Profile(), 12), 2, /*seed=*/29);
  fs::path dir = FreshDir("engine-corrupt");
  fs::create_directories(dir);
  {
    std::ofstream out(dir / "history.jsonl", std::ios::binary);
    out << "torn fragment without newline";
  }
  auto solution = MakeDelexSolution(spec, dir.string());
  auto run = RunSeries(solution.get(), series);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  std::vector<HistoryRecord> records;
  HistoryLoadInfo info;
  ASSERT_TRUE(
      HistoryStore::LoadFile((dir / "history.jsonl").string(), &records, &info)
          .ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].gen, 1);
  EXPECT_EQ(records[1].gen, 2);
  EXPECT_EQ(info.corrupt_dropped, 1);
  EXPECT_TRUE(info.first_error.IsCorruption());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace delex
