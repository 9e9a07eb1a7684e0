// Parallel-engine tests: Theorem-1 equivalence under page parallelism.
//
// The page pipeline (reader prefetch → concurrent per-page plan walks →
// ordered write-back) must be invisible to every observer: for any thread
// count, the result multiset, the per-snapshot sorted tuples, the
// count-valued stats, and the *bytes* of the captured next-generation
// reuse files must equal the num_threads=1 run, where the same pipeline
// evaluates pages inline on the calling thread. Both dataset profiles ×
// all four matchers are exercised; so are the slot ring (a slow page that
// fills it, a throwing page that must fail the run rather than hang it)
// and the error contracts of ThreadPool and TaskGroup.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_pool.h"
#include "delex/engine.h"
#include "harness/experiment.h"
#include "harness/programs.h"
#include "ring_series.h"
#include "run_stats_counters.h"
#include "shard/sharded_engine.h"
#include "storage/page_groups.h"
#include "storage/record_file.h"
#include "storage/reuse_file.h"

namespace delex {
namespace {

std::string FreshDir(const std::string& tag) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("delex-parallel-" + tag)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << path;
  return std::string((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
}

/// Bytes of every file under `dir` (shard subdirectories included), keyed
/// by path relative to `dir`.
std::map<std::string, std::string> ReuseFileBytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    files[std::filesystem::relative(entry.path(), dir).string()] =
        ReadFileBytes(entry.path().string());
  }
  return files;
}

struct EngineRun {
  std::vector<std::vector<Tuple>> per_snapshot;  // canonicalized results
  std::map<std::string, std::string> reuse_files;  // final generation bytes
  std::vector<std::map<std::string, int64_t>> counters;  // per snapshot
};

/// Trial pages per run in RunEngine: enough that the trial counters,
/// which ParallelDeterminism compares across widths, are not all zero.
constexpr int kTrialPages = 4;

/// Runs `series` through a fresh engine at `num_threads`, uniform
/// `matcher` assignment (with kTrialPages trial pages per run), collecting
/// per-snapshot canonical results and the final captured reuse files.
EngineRun RunEngine(const ProgramSpec& spec, const std::vector<Snapshot>& series,
                    MatcherKind matcher, int num_threads,
                    const std::string& tag) {
  EngineRun run;
  DelexEngine::Options options;
  options.work_dir = FreshDir(tag);
  options.num_threads = num_threads;
  DelexEngine engine(spec.plan, options);
  EXPECT_TRUE(engine.Init().ok());
  MatcherAssignment assignment =
      MatcherAssignment::Uniform(engine.NumUnits(), matcher);
  for (size_t i = 0; i < series.size(); ++i) {
    RunStats stats;
    auto rows = engine.RunSnapshot(series[i], i > 0 ? &series[i - 1] : nullptr,
                                   assignment, &stats, kTrialPages);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    run.per_snapshot.push_back(Canonicalize(std::move(rows).ValueOrDie()));
    run.counters.push_back(CountValuedFields(stats));
  }
  run.reuse_files = ReuseFileBytes(options.work_dir);
  return run;
}

/// Profile tag × matcher: the full determinism matrix, plus a series that
/// sets every kind of boundary of a run of identical pages.
struct Case {
  const char* program;  // chair → DBLife profile, play → Wikipedia
  MatcherKind matcher;
  bool boundaries = false;  // RunBoundarySeries over the profile's pages
};

class ParallelDeterminism : public ::testing::TestWithParam<Case> {};

TEST_P(ParallelDeterminism, ThreadCountsAgreeByteForByte) {
  const Case& c = GetParam();
  ProgramSpec spec = *MakeProgram(c.program);
  DatasetProfile profile = spec.Profile();
  profile.num_sources = c.boundaries
                            ? static_cast<int>(3 * DelexEngine::kRunPages + 20)
                            : 15;
  std::vector<Snapshot> series =
      c.boundaries ? RunBoundarySeries(GenerateSeries(profile, 1, 97)[0], 3)
                   : GenerateSeries(profile, 3, 97);

  std::string tag_base = std::string(c.program) + "-" +
                         MatcherKindName(c.matcher) +
                         (c.boundaries ? "-runs" : "") + "-t";
  EngineRun serial = RunEngine(spec, series, c.matcher, 1, tag_base + "1");
  for (int threads : {2, 8}) {
    EngineRun parallel = RunEngine(spec, series, c.matcher, threads,
                                   tag_base + std::to_string(threads));
    ASSERT_EQ(serial.per_snapshot.size(), parallel.per_snapshot.size());
    for (size_t i = 0; i < serial.per_snapshot.size(); ++i) {
      EXPECT_TRUE(SameResults(serial.per_snapshot[i], parallel.per_snapshot[i]))
          << c.program << " " << MatcherKindName(c.matcher) << " threads="
          << threads << " snapshot=" << i;
    }
    // Next-generation reuse files must be byte-identical: the ordered
    // write-back stage preserves page order and tid monotonicity exactly.
    ASSERT_EQ(serial.reuse_files.size(), parallel.reuse_files.size());
    for (const auto& [name, bytes] : serial.reuse_files) {
      auto it = parallel.reuse_files.find(name);
      ASSERT_NE(it, parallel.reuse_files.end()) << name;
      EXPECT_EQ(bytes, it->second)
          << name << " differs at threads=" << threads;
    }
    // Deterministic counters (not timers) must also agree: the per-page
    // shards fold to the same totals regardless of scheduling.
    EXPECT_EQ(serial.counters, parallel.counters) << "threads=" << threads;
  }
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return std::string(info.param.program) + "_" +
         MatcherKindName(info.param.matcher) +
         (info.param.boundaries ? "_run_boundaries" : "");
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndMatchers, ParallelDeterminism,
    ::testing::Values(Case{"chair", MatcherKind::kDN},   // DBLife profile
                      Case{"chair", MatcherKind::kUD},
                      Case{"chair", MatcherKind::kST},
                      Case{"chair", MatcherKind::kRU},
                      Case{"play", MatcherKind::kDN},    // Wikipedia profile
                      Case{"play", MatcherKind::kUD},
                      Case{"play", MatcherKind::kST},
                      Case{"play", MatcherKind::kRU},
                      Case{"chair", MatcherKind::kRU, true}),
    CaseName);

TEST(ParallelEngine, HardwareConcurrencyOptionRuns) {
  // num_threads = 0 resolves to hardware_concurrency and must behave like
  // any other thread count.
  ProgramSpec spec = *MakeProgram("blockbuster");
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 10;
  std::vector<Snapshot> series = GenerateSeries(profile, 2, 11);
  EngineRun serial = RunEngine(spec, series, MatcherKind::kST, 1, "hw-serial");
  EngineRun hw = RunEngine(spec, series, MatcherKind::kST, 0, "hw-auto");
  for (size_t i = 0; i < serial.per_snapshot.size(); ++i) {
    EXPECT_TRUE(SameResults(serial.per_snapshot[i], hw.per_snapshot[i]));
  }
  for (const auto& [name, bytes] : serial.reuse_files) {
    EXPECT_EQ(bytes, hw.reuse_files[name]) << name;
  }
}

TEST(ParallelEngine, OptimizerDrivenSolutionMatchesAcrossThreadCounts) {
  // End-to-end through the harness (optimizer choosing assignments per
  // snapshot): parallel Delex must equal serial Delex and from-scratch.
  ProgramSpec spec = *MakeProgram("chair");
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 15;
  std::vector<Snapshot> series = GenerateSeries(profile, 3, 33);

  auto no_reuse = MakeNoReuseSolution(spec);
  auto base_run = RunSeries(no_reuse.get(), series, true);
  ASSERT_TRUE(base_run.ok());

  for (int threads : {1, 4}) {
    DelexSolutionOptions options;
    options.num_threads = threads;
    auto delex = MakeDelexSolution(
        spec, FreshDir("opt-t" + std::to_string(threads)), options);
    auto run = RunSeries(delex.get(), series, true);
    ASSERT_TRUE(run.ok());
    for (size_t i = 0; i < base_run->results.size(); ++i) {
      EXPECT_TRUE(SameResults(base_run->results[i], run->results[i]))
          << "threads=" << threads << " snapshot=" << i;
    }
  }
}

/// One run of a series under a forced plan, generation by generation:
/// the rows in engine order, every file of the work dir, and the counters
/// apart from the trials' own.
struct TrialRun {
  std::vector<std::vector<Tuple>> rows;
  std::vector<std::map<std::string, std::string>> files;
  std::vector<std::map<std::string, int64_t>> counters;
  int64_t trial_pages = 0;  // summed over units and generations
};

TrialRun RunWithTrials(const ProgramSpec& spec,
                       const std::vector<Snapshot>& series,
                       const MatcherAssignment& plan, int threads, int shards,
                       int trial_pages, const std::string& tag) {
  TrialRun run;
  const std::string dir = FreshDir(tag);
  std::unique_ptr<DelexEngine> engine;
  std::unique_ptr<shard::ShardedEngine> sharded;
  if (shards > 1) {
    shard::ShardedEngine::Options options;
    options.work_dir = dir;
    options.num_shards = shards;
    options.num_threads = threads;
    sharded = std::make_unique<shard::ShardedEngine>(spec.plan, options);
    EXPECT_TRUE(sharded->Init().ok());
  } else {
    DelexEngine::Options options;
    options.work_dir = dir;
    options.num_threads = threads;
    engine = std::make_unique<DelexEngine>(spec.plan, options);
    EXPECT_TRUE(engine->Init().ok());
  }
  for (size_t i = 0; i < series.size(); ++i) {
    const Snapshot* previous = i > 0 ? &series[i - 1] : nullptr;
    RunStats stats;
    Result<std::vector<Tuple>> rows =
        sharded != nullptr
            ? sharded->RunSnapshot(
                  series[i], previous,
                  std::vector<MatcherAssignment>(static_cast<size_t>(shards),
                                                 plan),
                  &stats, nullptr, trial_pages)
            : engine->RunSnapshot(series[i], previous, plan, &stats,
                                  trial_pages);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    run.rows.push_back(std::move(rows).ValueOrDie());
    run.files.push_back(ReuseFileBytes(dir));
    std::map<std::string, int64_t> counters;
    for (const auto& [name, value] : CountValuedFields(stats)) {
      if (name.find(".trial") == std::string::npos) counters[name] = value;
    }
    run.counters.push_back(std::move(counters));
    for (const UnitRunStats& unit : stats.units) {
      run.trial_pages += unit.trial_pages;
    }
  }
  return run;
}

TEST(TrialMatching, TrialsLeaveNoTrace) {
  // Trials run the matchers a plan did not give a unit over the regions of
  // a few pages. Under one forced plan — UD at the bottom unit, RU above
  // it (so trials could only reach its rows through the RU match cache),
  // DN elsewhere — the rows, every generation's reuse files, .idx files
  // and result cache, and every counter but the trials' own must be those
  // of the same run without trials, at widths 1 and 4 and on 2 shards.
  for (const auto& [program, pages] :
       {std::pair<const char*, int>{"chair", 60}, {"play", 12}}) {
    ProgramSpec spec = *MakeProgram(program);
    DatasetProfile profile = spec.Profile();
    profile.num_sources = pages;
    std::vector<Snapshot> series = GenerateSeries(profile, 3, 41);
    Result<UnitAnalysis> analysis = AnalyzeUnits(spec.plan);
    ASSERT_TRUE(analysis.ok());
    MatcherAssignment plan =
        MatcherAssignment::Uniform(analysis->units.size(), MatcherKind::kDN);
    plan.per_unit[0] = MatcherKind::kUD;
    plan.per_unit[1] = MatcherKind::kRU;
    for (const auto& [threads, shards] :
         {std::pair<int, int>{1, 1}, {4, 1}, {2, 2}}) {
      const std::string tag = std::string("trials-") + program + "-t" +
                              std::to_string(threads) + "-s" +
                              std::to_string(shards);
      SCOPED_TRACE(tag);
      const TrialRun plain =
          RunWithTrials(spec, series, plan, threads, shards, 0, tag + "-off");
      const TrialRun tried =
          RunWithTrials(spec, series, plan, threads, shards, 6, tag + "-on");
      EXPECT_EQ(plain.trial_pages, 0);
      EXPECT_GT(tried.trial_pages, 0);
      EXPECT_EQ(plain.rows, tried.rows);
      EXPECT_EQ(plain.counters, tried.counters);
      ASSERT_EQ(plain.files.size(), tried.files.size());
      for (size_t g = 0; g < plain.files.size(); ++g) {
        EXPECT_EQ(plain.files[g], tried.files[g]) << "generation " << g;
      }
    }
  }
}

/// Emits nothing; records the threads its Extract calls ran on.
class ThreadRecordingExtractor final : public Extractor {
 public:
  std::vector<Tuple> Extract(std::string_view /*region_text*/,
                             int64_t /*region_base*/,
                             const Tuple& /*context*/) const override {
    MutexLock lock(&mu_);
    threads_.insert(std::this_thread::get_id());
    return {};
  }
  int64_t Scope() const override { return 1000; }
  int64_t ContextWidth() const override { return 0; }
  int64_t OutputArity() const override { return 1; }
  const std::string& Name() const override { return name_; }

  std::set<std::thread::id> Threads() const {
    MutexLock lock(&mu_);
    return threads_;
  }

 private:
  std::string name_ = "recordThread";
  mutable Mutex mu_;
  mutable std::set<std::thread::id> threads_ DELEX_GUARDED_BY(mu_);
};

TEST(ParallelEngine, WidthOneEvaluatesPagesOnTheCallingThread) {
  Snapshot snapshot;
  for (int i = 0; i < 6; ++i) snapshot.AddPage("u" + std::to_string(i), "x");
  for (int threads : {1, 4}) {
    auto extractor = std::make_shared<ThreadRecordingExtractor>();
    auto scan = std::make_shared<xlog::PlanNode>();
    scan->schema = {"d"};
    auto ie = std::make_shared<xlog::PlanNode>();
    ie->kind = xlog::PlanKind::kIE;
    ie->extractor = extractor;
    ie->input_col = 0;
    ie->children = {scan};
    ie->schema = {"d", "x"};
    xlog::AssignIds(ie);
    DelexEngine::Options options;
    options.work_dir = FreshDir("inline-t" + std::to_string(threads));
    options.num_threads = threads;
    DelexEngine engine(ie, options);
    ASSERT_TRUE(engine.Init().ok());
    ASSERT_TRUE(engine
                    .RunSnapshot(snapshot, nullptr,
                                 MatcherAssignment::Uniform(1, MatcherKind::kDN),
                                 nullptr)
                    .ok());
    const std::set<std::thread::id> used = extractor->Threads();
    const bool on_caller = used.contains(std::this_thread::get_id());
    if (threads == 1) {
      EXPECT_EQ(used.size(), 1u);  // inline: no pool thread ran a page
      EXPECT_TRUE(on_caller);
    } else {
      EXPECT_FALSE(on_caller);  // the caller only prefetches and commits
    }
  }
}

// ---------------------------------------------------------------------------
// The slot ring
// ---------------------------------------------------------------------------

struct RingRun {
  std::vector<std::vector<Tuple>> rows;  // per snapshot, in engine order
  std::vector<std::map<std::string, int64_t>> counters;  // per snapshot
  std::map<std::string, std::string> files;  // every generation's files
};

/// Runs `series` on `engine` (a DelexEngine or a ShardedEngine), keeping
/// every generation's reuse files and result cache as they are written.
template <typename Engine>
RingRun RunRingSeries(Engine* engine, const std::string& work_dir,
                      const std::vector<Snapshot>& series) {
  RingRun run;
  EXPECT_TRUE(engine->Init().ok());
  const MatcherAssignment st = MatcherAssignment::Uniform(1, MatcherKind::kST);
  for (size_t i = 0; i < series.size(); ++i) {
    RunStats stats;
    auto rows = engine->RunSnapshot(series[i], i > 0 ? &series[i - 1] : nullptr,
                                    st, &stats);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    run.rows.push_back(std::move(rows).ValueOrDie());
    run.counters.push_back(CountValuedFields(stats));
    for (auto& [name, bytes] : ReuseFileBytes(work_dir)) {
      run.files[name] = std::move(bytes);
    }
  }
  return run;
}

RingRun RunUnsharded(const std::vector<Snapshot>& series, int threads,
                     const std::string& tag = "ring") {
  DelexEngine::Options options;
  options.work_dir = FreshDir(tag + "-t" + std::to_string(threads));
  options.num_threads = threads;
  DelexEngine engine(MarkerPlan(), options);
  return RunRingSeries(&engine, options.work_dir, series);
}

RingRun RunTwoShards(const std::vector<Snapshot>& series, int threads,
                     const std::string& tag = "ring") {
  shard::ShardedEngine::Options options;
  options.work_dir = FreshDir(tag + "-s2-t" + std::to_string(threads));
  options.num_shards = 2;
  options.num_threads = threads;
  shard::ShardedEngine engine(MarkerPlan(), options);
  return RunRingSeries(&engine, options.work_dir, series);
}

TEST(PipelineRing, SlowPageFillsTheRingAndEveryWidthAgrees) {
  // Four rings' worth of pages at the widest width: the ring wraps several
  // times, and behind each snapshot's slow page the reader fills it with
  // fast-path pages and must wait for the slow page to commit.
  const size_t num_pages = 4 * DelexEngine::RingSlots(8) + 7;
  const std::vector<Snapshot> series = RingSeries(num_pages, 0);
  const RingRun serial = RunUnsharded(series, 1);
  ASSERT_EQ(serial.counters.size(), 3u);
  EXPECT_EQ(serial.counters[2].at("pages"), static_cast<int64_t>(num_pages));
  EXPECT_GT(serial.counters[2].at("pages_identical"),
            static_cast<int64_t>(num_pages * 9 / 10));
  EXPECT_GT(serial.counters[2].at("unit0.copied_tuples"), 0);
  for (int threads : {2, 8}) {
    const RingRun parallel = RunUnsharded(series, threads);
    EXPECT_TRUE(serial.rows == parallel.rows) << "threads=" << threads;
    EXPECT_TRUE(serial.files == parallel.files) << "threads=" << threads;
    EXPECT_EQ(serial.counters, parallel.counters) << "threads=" << threads;
  }
  // Two shards: the rows merge back into the unsharded order; each shard's
  // files and the merged counters match a 2-shard run on a 1-wide pool.
  const RingRun sharded_serial = RunTwoShards(series, 1);
  const RingRun sharded = RunTwoShards(series, 8);
  EXPECT_TRUE(serial.rows == sharded_serial.rows);
  EXPECT_TRUE(serial.rows == sharded.rows);
  EXPECT_TRUE(sharded_serial.files == sharded.files);
  EXPECT_EQ(sharded_serial.counters, sharded.counters);
}

TEST(PipelineRing, RunBoundariesAgreeAcrossWidthsAndShards) {
  // Every kind of run boundary — a deleted old page and an inserted new
  // page inside a run, two swapped URLs, an edited page, a run longer than
  // the cap that ends the snapshot — at every width: rows, every
  // generation's files and the counters equal the width-1 run's.
  const std::vector<Snapshot> series =
      RunBoundarySeries(MarkerPages(3 * DelexEngine::kRunPages + 20), 3);
  const RingRun serial = RunUnsharded(series, 1, "runs");
  for (size_t i = 1; i < serial.counters.size(); ++i) {
    // Runs split at the inserted page, the swapped pair, the edited page
    // and the cap; the passed page of the swapped pair demotes.
    EXPECT_GE(serial.counters[i].at("identical_runs"), 5) << i;
    EXPECT_EQ(serial.counters[i].at("fast_path_demote_result_cache"), 1) << i;
    EXPECT_EQ(serial.counters[i].at("pages_identical"),
              static_cast<int64_t>(series[i].NumPages()) - 3)
        << i;
  }
  for (int threads : {2, 8}) {
    const RingRun parallel = RunUnsharded(series, threads, "runs");
    EXPECT_TRUE(serial.rows == parallel.rows) << "threads=" << threads;
    EXPECT_TRUE(serial.files == parallel.files) << "threads=" << threads;
    EXPECT_EQ(serial.counters, parallel.counters) << "threads=" << threads;
  }
  const RingRun sharded_serial = RunTwoShards(series, 1, "runs");
  const RingRun sharded = RunTwoShards(series, 8, "runs");
  EXPECT_TRUE(serial.rows == sharded_serial.rows);
  EXPECT_TRUE(serial.rows == sharded.rows);
  EXPECT_TRUE(sharded_serial.files == sharded.files);
  EXPECT_EQ(sharded_serial.counters, sharded.counters);
}

/// Rewrites the record file at `path`, passing every record after the
/// magic through `keep`, which may edit it and returns false to drop it.
void RewriteRecords(const std::string& path,
                    const std::function<bool(std::string*)>& keep) {
  std::vector<std::string> records;
  {
    RecordReader reader;
    ASSERT_TRUE(reader.Open(path).ok()) << path;
    std::string record;
    bool at_end = false;
    while (true) {
      ASSERT_TRUE(reader.Next(&record, &at_end).ok());
      if (at_end) break;
      records.push_back(record);
    }
    ASSERT_TRUE(reader.Close().ok());
  }
  RecordWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  for (size_t i = 0; i < records.size(); ++i) {
    if (i == 0 || keep(&records[i])) {
      ASSERT_TRUE(writer.Append(records[i]).ok());
    }
  }
  ASSERT_TRUE(writer.Close().ok());
}

enum class Damage { kGarbledIndexEntry, kFlippedDigest, kDroppedResultGroup };

struct DamageRun {
  std::vector<Tuple> rows;                  // of the damaged snapshot
  std::map<std::string, int64_t> counters;  // of the damaged snapshot
  std::map<std::string, std::string> files;  // the generation it wrote
  int64_t unit_bytes = 0;    // the damaged page's unit group, framed
  int64_t unit_records = 0;  // and its records
  int64_t result_bytes = 0;  // the damaged page's cached rows, framed
};

/// Runs `series` (three snapshots), damaging generation 1's page `did`
/// before the last snapshot reads it (no damage with `damage` empty).
DamageRun RunDamaged(const std::vector<Snapshot>& series, int threads,
                     std::optional<Damage> damage, int64_t did,
                     const std::string& tag) {
  DamageRun run;
  DelexEngine::Options options;
  options.work_dir = FreshDir(tag + "-t" + std::to_string(threads));
  options.num_threads = threads;
  DelexEngine engine(MarkerPlan(), options);
  EXPECT_TRUE(engine.Init().ok());
  const MatcherAssignment st = MatcherAssignment::Uniform(1, MatcherKind::kST);
  EXPECT_TRUE(engine.RunSnapshot(series[0], nullptr, st, nullptr).ok());
  EXPECT_TRUE(engine.RunSnapshot(series[1], &series[0], st, nullptr).ok());

  const std::string unit = options.work_dir + "/unit0.gen1";
  const std::string results = options.work_dir + "/results.gen1";
  {
    UnitReuseReader reader;
    EXPECT_TRUE(reader.Open(unit).ok());
    const PageIndexEntry* entry = reader.FindIndexEntry(did);
    EXPECT_NE(entry, nullptr);
    if (entry != nullptr) {
      run.unit_bytes = entry->in_bytes + entry->out_bytes;
      run.unit_records = entry->n_inputs + entry->n_outputs;
    }
  }
  // Walks the result cache's page groups; drops page `did`'s group when
  // asked to, measuring its rows either way.
  int64_t rows_left = 0;
  bool in_target = false;
  RewriteRecords(results, [&](std::string* record) {
    if (rows_left > 0) {
      --rows_left;
      if (in_target) run.result_bytes += 8 + static_cast<int64_t>(record->size());
      return !(in_target && damage == Damage::kDroppedResultGroup);
    }
    int64_t page_did = 0;
    EXPECT_TRUE(DecodePageHeader(*record, &page_did, &rows_left));
    in_target = page_did == did;
    return !(in_target && damage == Damage::kDroppedResultGroup);
  });
  if (damage == Damage::kGarbledIndexEntry ||
      damage == Damage::kFlippedDigest) {
    RewriteRecords(unit + ".idx", [&](std::string* record) {
      Result<PageIndexEntry> entry = DecodePageIndexEntry(*record);
      EXPECT_TRUE(entry.ok());
      if (entry.ok() && entry->did == did) {
        PageIndexEntry edited = *entry;
        if (damage == Damage::kGarbledIndexEntry) {
          edited.in_offset += 8;
        } else {
          edited.page_digest ^= 1;
        }
        record->clear();
        EncodePageIndexEntry(edited, record);
      }
      return true;
    });
  }

  RunStats stats;
  auto rows = engine.RunSnapshot(series[2], &series[1], st, &stats);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  run.rows = std::move(rows).ValueOrDie();
  run.counters = CountValuedFields(stats);
  run.files = ReuseFileBytes(options.work_dir);
  return run;
}

TEST(PipelineRing, DamageInsideARunDemotesOnlyThatPage) {
  // 150 pages, all but the first identical from one snapshot to the next:
  // a stretch of 149 identical pages, damaged at page 50.
  std::vector<Snapshot> series(3);
  series[0] = MarkerPages(150);
  for (size_t s = 1; s < series.size(); ++s) {
    for (const Page& page : series[s - 1].pages()) {
      series[s].AddPage(page.url, page.did == 0 ? page.content + " a"
                                                 : page.content);
    }
  }
  constexpr int64_t kDamaged = 50;
  for (int threads : {1, 8}) {
    const DamageRun clean =
        RunDamaged(series, threads, std::nullopt, kDamaged, "damage-clean");
    EXPECT_EQ(clean.counters.at("pages_identical"), 149);
    EXPECT_GT(clean.unit_bytes, 0);
    EXPECT_GT(clean.result_bytes, 0);
    for (Damage damage : {Damage::kGarbledIndexEntry, Damage::kFlippedDigest,
                          Damage::kDroppedResultGroup}) {
      const std::string name =
          "damage-" + std::to_string(static_cast<int>(damage));
      const DamageRun damaged =
          RunDamaged(series, threads, damage, kDamaged, name);
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      // An evaluated page may emit its copied rows in another order.
      EXPECT_TRUE(SameResults(Canonicalize(damaged.rows),
                              Canonicalize(clean.rows)));
      std::map<std::string, int64_t> expected = clean.counters;
      // The page's unit group is not relocated raw; its neighbours are.
      expected["raw_bytes_copied"] -= clean.unit_bytes;
      expected["records_decoded_skipped"] -= clean.unit_records;
      if (damage == Damage::kDroppedResultGroup) {
        // The page is evaluated, with its decoded reuse records.
        expected["fast_path_demote_result_cache"] = 1;
        expected["pages_identical"] -= 1;
        expected["raw_bytes_copied"] -= clean.result_bytes;
        expected["page_eval_hist.count"] += 1;
      } else {
        // The page stays identical; its unit group is decode-copied, which
        // reproduces the clean generation byte for byte.
        expected["fast_path_decode_copy_groups"] = 1;
        EXPECT_TRUE(damaged.files == clean.files);
      }
      // Which runs the damaged page splits, and what the reader reads for
      // it, follow from the damage; the rest is the clean run's.
      for (const char* free_key :
           {"identical_runs", "reuse_read_io.bytes_read",
            "reuse_read_io.records_read", "unit0.input_tuples",
            "unit0.output_tuples", "unit0.copied_tuples",
            "unit0.exact_region_hits", "unit0.extract_hist.count",
            "unit0.extracted_tuples", "unit0.chars_extracted",
            "match_hist.ST.count", "unit0.matcher_calls",
            "unit0.input_chars"}) {
        expected[free_key] = damaged.counters.at(free_key);
      }
      EXPECT_EQ(damaged.counters, expected);
    }
  }
}

TEST(PipelineRing, ThrowingPageFailsTheRunInsteadOfHangingIt) {
  // The throwing page sits two rings into the last snapshot, with two more
  // rings of pages behind it: while it sleeps, the reader fills the ring
  // and waits on its slot, which never commits. The failure must wake the
  // reader. (ctest gives this test a short TIMEOUT: a hang fails it.)
  const size_t ring = DelexEngine::RingSlots(8);
  const std::vector<Snapshot> series = RingSeries(4 * ring + 7, 2 * ring);
  const MatcherAssignment st = MatcherAssignment::Uniform(1, MatcherKind::kST);
  for (int threads : {2, 8}) {
    DelexEngine::Options options;
    options.work_dir = FreshDir("ring-throw-t" + std::to_string(threads));
    options.num_threads = threads;
    DelexEngine engine(MarkerPlan(), options);
    ASSERT_TRUE(engine.Init().ok());
    ASSERT_TRUE(engine.RunSnapshot(series[0], nullptr, st, nullptr).ok());
    ASSERT_TRUE(engine.RunSnapshot(series[1], &series[0], st, nullptr).ok());
    auto failed = engine.RunSnapshot(series[2], &series[1], st, nullptr);
    ASSERT_FALSE(failed.ok()) << "threads=" << threads;
    EXPECT_TRUE(failed.status().IsInternal())
        << "threads=" << threads << ": " << failed.status().ToString();
    EXPECT_NE(failed.status().message().find("marker page"), std::string::npos)
        << failed.status().ToString();
  }
}

TEST(ThreadPool, RunsAllTasksAcrossThreads) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count]() {
      count.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, FirstErrorWinsAndLaterTasksStillRun) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.Submit([&ran]() {
    ran.fetch_add(1);
    return Status::IOError("disk gone");
  });
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&ran]() {
      ran.fetch_add(1);
      return Status::OK();
    });
  }
  Status status = pool.Wait();
  EXPECT_TRUE(status.IsIOError());
  EXPECT_EQ(ran.load(), 11);  // error does not cancel queued work
  // The error is consumed; the pool is reusable.
  pool.Submit([]() { return Status::OK(); });
  EXPECT_TRUE(pool.Wait().ok());
}

TEST(ThreadPool, ExceptionsBecomeInternalStatus) {
  ThreadPool pool(2);
  pool.Submit([]() -> Status { throw std::runtime_error("boom"); });
  Status status = pool.Wait();
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.message().find("boom"), std::string::npos);
}

TEST(TaskGroup, NullPoolRunsTasksInlineInSubmitOrder) {
  TaskGroup tasks(nullptr, 2);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  bool all_on_caller = true;
  for (int i = 0; i < 5; ++i) {
    tasks.Submit([&, i]() {
      order.push_back(i);
      all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
      return Status::OK();
    });
    // Inline: the task has already run when Submit returns.
    EXPECT_EQ(order.size(), static_cast<size_t>(i + 1));
  }
  EXPECT_TRUE(tasks.Wait().ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(all_on_caller);
}

TEST(TaskGroup, AtMostWindowTasksUnfinished) {
  ThreadPool pool(4);
  constexpr int kWindow = 2;
  TaskGroup tasks(&pool, kWindow);
  std::atomic<int> running{0};
  std::atomic<int> high_water{0};
  for (int i = 0; i < 40; ++i) {
    tasks.Submit([&]() {
      const int now = running.fetch_add(1) + 1;
      int seen = high_water.load();
      while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      running.fetch_sub(1);
      return Status::OK();
    });
  }
  EXPECT_TRUE(tasks.Wait().ok());
  EXPECT_EQ(running.load(), 0);
  EXPECT_GE(high_water.load(), 1);
  EXPECT_LE(high_water.load(), kWindow);  // 4 workers, yet never 3 at once
}

TEST(TaskGroup, WaitReturnsOnlyThisGroupsFirstError) {
  ThreadPool pool(2);
  // Another caller's failed task, left undrained on the shared pool.
  pool.Submit([] { return Status::Internal("another caller's task"); });
  TaskGroup clean(&pool, 2);
  for (int i = 0; i < 4; ++i) clean.Submit([] { return Status::OK(); });
  EXPECT_TRUE(clean.Wait().ok());

  // Window 1 finishes each task before the next starts, so "first" is
  // well defined.
  TaskGroup failing(&pool, 1);
  failing.Submit([] { return Status::OK(); });
  failing.Submit([] { return Status::IOError("disk gone"); });
  failing.Submit([] { return Status::InvalidArgument("later"); });
  Status status = failing.Wait();
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  // The pool's sticky error is still the other caller's.
  EXPECT_TRUE(pool.Wait().IsInternal());
}

TEST(TaskGroup, ThrowingTaskBecomesInternal) {
  ThreadPool pool(2);
  for (ThreadPool* target : {static_cast<ThreadPool*>(nullptr), &pool}) {
    TaskGroup tasks(target, 2);
    tasks.Submit([]() -> Status { throw std::runtime_error("boom"); });
    tasks.Submit([] { return Status::OK(); });
    Status status = tasks.Wait();
    EXPECT_TRUE(status.IsInternal()) << status.ToString();
    EXPECT_NE(status.message().find("boom"), std::string::npos);
  }
  EXPECT_TRUE(pool.Wait().ok());  // the group's errors never reach the pool
}

}  // namespace
}  // namespace delex
