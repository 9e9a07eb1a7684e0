// Engine-level tests: that Delex actually *reuses* (not just stays
// correct), that page churn and ordering perturbations degrade gracefully,
// that capture works across generations, that the ablation switches
// (exact path off, folding off) and randomized matcher assignments all
// preserve Theorem 1, and that every plan walk rejects a non-span IE input
// alike.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "delex/engine.h"
#include "harness/experiment.h"
#include "harness/programs.h"
#include "optimizer/stats_collector.h"
#include "shard/sharded_engine.h"

namespace delex {
namespace {

std::string FreshDir(const std::string& tag) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("delex-engine-" + tag)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

DatasetProfile Small(DatasetProfile profile, int pages) {
  profile.num_sources = pages;
  return profile;
}

TEST(Engine, RequiresInitAndCaptureBeforeReuse) {
  ProgramSpec spec = *MakeProgram("blockbuster");
  DelexEngine::Options options;
  options.work_dir = FreshDir("init");
  DelexEngine engine(spec.plan, options);

  Snapshot snapshot;
  snapshot.AddPage("u", "text\n\nmore");
  MatcherAssignment none;
  EXPECT_FALSE(engine.RunSnapshot(snapshot, nullptr, none, nullptr).ok());
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_FALSE(engine.Init().ok());  // double init rejected
  // Reuse before any capture is rejected.
  EXPECT_FALSE(engine.RunSnapshot(snapshot, &snapshot, none, nullptr).ok());
  EXPECT_TRUE(engine.RunSnapshot(snapshot, nullptr, none, nullptr).ok());
  EXPECT_EQ(engine.generation(), 1);
}

TEST(Engine, ReuseActuallyHappensOnStableCorpus) {
  ProgramSpec spec = *MakeProgram("chair");
  std::vector<Snapshot> series =
      GenerateSeries(Small(spec.Profile(), 30), 3, 21);
  DelexEngine::Options options;
  options.work_dir = FreshDir("reuse");
  // This test is about *region-level* reuse (copied_tuples); the whole-page
  // fast path would skip evaluation of identical pages entirely and hide it.
  options.disable_page_fast_path = true;
  DelexEngine engine(spec.plan, options);
  ASSERT_TRUE(engine.Init().ok());
  MatcherAssignment st =
      MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kST);

  RunStats first;
  ASSERT_TRUE(engine.RunSnapshot(series[0], nullptr, st, &first).ok());
  int64_t scratch_chars = 0;
  for (const UnitRunStats& u : first.units) scratch_chars += u.chars_extracted;

  RunStats second;
  ASSERT_TRUE(engine.RunSnapshot(series[1], &series[0], st, &second).ok());
  int64_t reused_chars = 0;
  int64_t copied = 0;
  for (const UnitRunStats& u : second.units) {
    reused_chars += u.chars_extracted;
    copied += u.copied_tuples;
  }
  EXPECT_GT(copied, 0);
  // On a 97%-identical corpus, re-extraction must collapse.
  EXPECT_LT(reused_chars, scratch_chars / 5);
  EXPECT_GT(second.pages_with_previous, 0);
}

TEST(Engine, ExactFastPathHitsOnIdenticalPages) {
  ProgramSpec spec = *MakeProgram("blockbuster");
  Snapshot snapshot;
  snapshot.AddPage("u", "Movie paragraph about \"Silent Harbor\" here.\n\n"
                        "Another paragraph entirely.");
  DelexEngine::Options options;
  options.work_dir = FreshDir("exact");
  // Exercise the exact-*region* path: with the whole-page fast path on, an
  // identical page never reaches region matching at all.
  options.disable_page_fast_path = true;
  DelexEngine engine(spec.plan, options);
  ASSERT_TRUE(engine.Init().ok());
  MatcherAssignment dn =
      MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kDN);
  ASSERT_TRUE(engine.RunSnapshot(snapshot, nullptr, dn, nullptr).ok());
  RunStats stats;
  ASSERT_TRUE(engine.RunSnapshot(snapshot, &snapshot, dn, &stats).ok());
  int64_t exact = 0;
  int64_t extracted_chars = 0;
  for (const UnitRunStats& u : stats.units) {
    exact += u.exact_region_hits;
    extracted_chars += u.chars_extracted;
  }
  EXPECT_GT(exact, 0);
  EXPECT_EQ(extracted_chars, 0);  // everything copied, nothing re-run
}

TEST(Engine, PageChurnHandled) {
  // Deleted, added, and renamed pages must all flow through.
  ProgramSpec spec = *MakeProgram("blockbuster");
  Snapshot first;
  std::string content =
      "The film \"Glass Mountain\" grossed 500 million dollars worldwide.";
  first.AddPage("a", content);
  first.AddPage("b", content);
  first.AddPage("c", content);
  Snapshot second;
  second.AddPage("a", content);      // unchanged
  second.AddPage("d", content);      // new page
  // "b" and "c" deleted.

  DelexEngine::Options options;
  options.work_dir = FreshDir("churn");
  DelexEngine engine(spec.plan, options);
  ASSERT_TRUE(engine.Init().ok());
  MatcherAssignment ud =
      MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kUD);
  ASSERT_TRUE(engine.RunSnapshot(first, nullptr, ud, nullptr).ok());
  auto result = engine.RunSnapshot(second, &first, ud, nullptr);
  ASSERT_TRUE(result.ok());
  // Identical program output per page: 1 blockbuster row each.
  EXPECT_EQ(result->size(), 2u);
}

TEST(Engine, ReuseFilesCleanedAfterConsumption) {
  ProgramSpec spec = *MakeProgram("blockbuster");
  std::vector<Snapshot> series =
      GenerateSeries(Small(spec.Profile(), 5), 3, 3);
  std::string dir = FreshDir("cleanup");
  DelexEngine::Options options;
  options.work_dir = dir;
  DelexEngine engine(spec.plan, options);
  ASSERT_TRUE(engine.Init().ok());
  MatcherAssignment dn =
      MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kDN);
  ASSERT_TRUE(engine.RunSnapshot(series[0], nullptr, dn, nullptr).ok());
  ASSERT_TRUE(engine.RunSnapshot(series[1], &series[0], dn, nullptr).ok());
  ASSERT_TRUE(engine.RunSnapshot(series[2], &series[1], dn, nullptr).ok());
  // Only the latest generation remains on disk: per unit .in/.out/.idx,
  // plus the page result cache.
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().string().find("gen2"), std::string::npos)
        << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 3u * engine.NumUnits() + 1u);
}

TEST(Engine, CapturedResultsSurviveAcrossGenerations) {
  // Reuse in generation 3 still matches from-scratch (files round-trip
  // across generations, tids/itids stay aligned).
  ProgramSpec spec = *MakeProgram("chair");
  std::vector<Snapshot> series =
      GenerateSeries(Small(spec.Profile(), 15), 5, 77);
  auto delex = MakeDelexSolution(spec, FreshDir("gen"));
  auto no_reuse = MakeNoReuseSolution(spec);
  auto delex_run = RunSeries(delex.get(), series, true);
  auto base_run = RunSeries(no_reuse.get(), series, true);
  ASSERT_TRUE(delex_run.ok());
  ASSERT_TRUE(base_run.ok());
  for (size_t i = 0; i < base_run->results.size(); ++i) {
    EXPECT_TRUE(SameResults(base_run->results[i], delex_run->results[i]))
        << "generation " << i + 1;
  }
}

/// Property: random per-unit matcher assignments (mixing all four kinds)
/// preserve Theorem 1 on a fast-changing corpus.
class RandomAssignment : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomAssignment, MixedMatchersPreserveResults) {
  ProgramSpec spec = *MakeProgram("play");
  DatasetProfile profile = Small(spec.Profile(), 15);
  std::vector<Snapshot> series = GenerateSeries(profile, 4, GetParam());

  Rng rng(GetParam() * 17);
  DelexSolutionOptions options;
  options.forced_assignment.per_unit.resize(4);
  for (auto& kind : options.forced_assignment.per_unit) {
    kind = kAllMatcherKinds[rng.Uniform(4)];
  }
  auto delex = MakeDelexSolution(
      spec, FreshDir("rand" + std::to_string(GetParam())), options);
  auto no_reuse = MakeNoReuseSolution(spec);
  auto delex_run = RunSeries(delex.get(), series, true);
  auto base_run = RunSeries(no_reuse.get(), series, true);
  ASSERT_TRUE(delex_run.ok());
  ASSERT_TRUE(base_run.ok());
  for (size_t i = 0; i < base_run->results.size(); ++i) {
    EXPECT_TRUE(SameResults(base_run->results[i], delex_run->results[i]))
        << "assignment " << options.forced_assignment.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAssignment,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Engine, AblationSwitchesPreserveResults) {
  ProgramSpec spec = *MakeProgram("blockbuster");
  std::vector<Snapshot> series =
      GenerateSeries(Small(spec.Profile(), 15), 3, 55);
  auto no_reuse = MakeNoReuseSolution(spec);
  auto base_run = RunSeries(no_reuse.get(), series, true);
  ASSERT_TRUE(base_run.ok());

  for (int variant = 0; variant < 2; ++variant) {
    DelexSolutionOptions options;
    if (variant == 0) options.disable_exact_fast_path = true;
    if (variant == 1) options.fold_unit_operators = false;
    auto delex = MakeDelexSolution(
        spec, FreshDir("abl" + std::to_string(variant)), options);
    auto run = RunSeries(delex.get(), series, true);
    ASSERT_TRUE(run.ok());
    for (size_t i = 0; i < base_run->results.size(); ++i) {
      EXPECT_TRUE(SameResults(base_run->results[i], run->results[i]))
          << "variant " << variant;
    }
  }
}

TEST(Engine, FoldingShrinksCapturedOutputs) {
  // σ folding captures post-selection tuples: the .out reuse files of the
  // folded engine must be smaller (§4's storage argument).
  ProgramSpec spec = *MakeProgram("blockbuster");
  std::vector<Snapshot> series =
      GenerateSeries(Small(spec.Profile(), 20), 2, 31);

  auto run_variant = [&](bool fold) {
    DelexEngine::Options options;
    options.work_dir = FreshDir(fold ? "foldon" : "foldoff");
    options.fold_unit_operators = fold;
    DelexEngine engine(spec.plan, options);
    EXPECT_TRUE(engine.Init().ok());
    MatcherAssignment dn =
        MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kDN);
    RunStats stats;
    EXPECT_TRUE(engine.RunSnapshot(series[0], nullptr, dn, &stats).ok());
    return stats.reuse_write_io.bytes_written;
  };
  int64_t folded_bytes = run_variant(true);
  int64_t unfolded_bytes = run_variant(false);
  EXPECT_LT(folded_bytes, unfolded_bytes);
}

TEST(Engine, ResumeContinuesAcrossProcessRestart) {
  // Simulate a daily cron job: each snapshot is handled by a fresh engine
  // instance that resumes from the reuse files the previous one left.
  ProgramSpec spec = *MakeProgram("chair");
  std::vector<Snapshot> series =
      GenerateSeries(Small(spec.Profile(), 12), 3, 202);
  std::string dir = FreshDir("resume");

  auto no_reuse = MakeNoReuseSolution(spec);
  auto base_run = RunSeries(no_reuse.get(), series, true);
  ASSERT_TRUE(base_run.ok());

  std::vector<std::vector<Tuple>> results;
  for (size_t i = 0; i < series.size(); ++i) {
    DelexEngine::Options options;
    options.work_dir = dir;
    DelexEngine engine(spec.plan, options);  // a fresh "process"
    ASSERT_TRUE(engine.Init().ok());
    if (i > 0) {
      ASSERT_TRUE(engine.Resume(static_cast<int>(i)).ok());
    }
    MatcherAssignment ud =
        MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kUD);
    RunStats stats;
    auto rows = engine.RunSnapshot(series[i], i > 0 ? &series[i - 1] : nullptr,
                                   ud, &stats);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    if (i > 0) {
      results.push_back(Canonicalize(std::move(rows).ValueOrDie()));
      // The resumed engine must still reuse, not silently start over —
      // either region-level copies or whole-page fast-path hits.
      int64_t copied = 0;
      for (const UnitRunStats& u : stats.units) copied += u.copied_tuples;
      EXPECT_GT(copied + stats.pages_identical, 0) << "generation " << i;
    }
  }
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(SameResults(base_run->results[i], results[i]));
  }
}

TEST(Engine, ResumeValidatesPreconditions) {
  ProgramSpec spec = *MakeProgram("blockbuster");
  DelexEngine::Options options;
  options.work_dir = FreshDir("resume-bad");
  DelexEngine engine(spec.plan, options);
  EXPECT_FALSE(engine.Resume(1).ok());  // before Init
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_FALSE(engine.Resume(0).ok());  // nonsense generation
  EXPECT_FALSE(engine.Resume(1).ok());  // no files on disk
  Snapshot snapshot;
  snapshot.AddPage("u", "x\n\ny");
  MatcherAssignment dn =
      MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kDN);
  ASSERT_TRUE(engine.RunSnapshot(snapshot, nullptr, dn, nullptr).ok());
  EXPECT_FALSE(engine.Resume(1).ok());  // already ran in this process
}

TEST(Engine, AssignmentSizeValidated) {
  ProgramSpec spec = *MakeProgram("blockbuster");
  Snapshot snapshot;
  snapshot.AddPage("u", "x\n\ny");
  DelexEngine::Options options;
  options.work_dir = FreshDir("size");
  DelexEngine engine(spec.plan, options);
  ASSERT_TRUE(engine.Init().ok());
  MatcherAssignment dn = MatcherAssignment::Uniform(2, MatcherKind::kDN);
  ASSERT_TRUE(engine.RunSnapshot(snapshot, nullptr, dn, nullptr).ok());
  MatcherAssignment wrong = MatcherAssignment::Uniform(1, MatcherKind::kDN);
  EXPECT_FALSE(engine.RunSnapshot(snapshot, &snapshot, wrong, nullptr).ok());
}

/// A blackbox whose one output is an int64, not a span.
class IntEmitter final : public Extractor {
 public:
  std::vector<Tuple> Extract(std::string_view /*region_text*/,
                             int64_t /*region_base*/,
                             const Tuple& /*context*/) const override {
    return {Tuple{Value(int64_t{7})}};
  }
  int64_t Scope() const override { return int64_t{1} << 20; }
  int64_t ContextWidth() const override { return 0; }
  int64_t OutputArity() const override { return 1; }
  const std::string& Name() const override { return name_; }

 private:
  std::string name_ = "emitInt";
};

/// docs(d), emitInt(d, k), emitInt(k, j): the second IE node's input
/// column holds the first one's int64.
xlog::PlanNodePtr NonSpanInputPlan() {
  auto extractor = std::make_shared<IntEmitter>();
  auto scan = std::make_shared<xlog::PlanNode>();
  scan->kind = xlog::PlanKind::kScan;
  scan->schema = {"d"};
  auto first = std::make_shared<xlog::PlanNode>();
  first->kind = xlog::PlanKind::kIE;
  first->extractor = extractor;
  first->input_col = 0;
  first->children = {scan};
  first->schema = {"d", "k"};
  auto second = std::make_shared<xlog::PlanNode>();
  second->kind = xlog::PlanKind::kIE;
  second->extractor = extractor;
  second->input_col = 1;
  second->children = {first};
  second->schema = {"d", "k", "j"};
  xlog::AssignIds(second);
  return second;
}

TEST(Engine, NonSpanIEInputFailsTheSameWayEverywhere) {
  xlog::PlanNodePtr plan = NonSpanInputPlan();
  Snapshot snapshot;
  for (int i = 0; i < 6; ++i) {
    snapshot.AddPage("u" + std::to_string(i), "page " + std::to_string(i));
  }

  auto oracle = xlog::ExecutePlan(*plan, snapshot.pages()[0]);
  EXPECT_TRUE(oracle.status().IsInvalidArgument())
      << oracle.status().ToString();

  for (int threads : {1, 4}) {
    DelexEngine::Options options;
    options.work_dir = FreshDir("non-span-t" + std::to_string(threads));
    options.num_threads = threads;
    DelexEngine engine(plan, options);
    ASSERT_TRUE(engine.Init().ok());
    MatcherAssignment dn =
        MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kDN);
    auto rows = engine.RunSnapshot(snapshot, nullptr, dn, nullptr);
    EXPECT_TRUE(rows.status().IsInvalidArgument())
        << "threads=" << threads << ": " << rows.status().ToString();
  }

  shard::ShardedEngine::Options sharded_options;
  sharded_options.work_dir = FreshDir("non-span-sharded");
  sharded_options.num_shards = 2;
  sharded_options.num_threads = 2;
  shard::ShardedEngine sharded(plan, sharded_options);
  ASSERT_TRUE(sharded.Init().ok());
  auto sharded_rows = sharded.RunSnapshot(
      snapshot, nullptr,
      MatcherAssignment::Uniform(sharded.NumUnits(), MatcherKind::kDN),
      nullptr);
  EXPECT_TRUE(sharded_rows.status().IsInvalidArgument())
      << sharded_rows.status().ToString();

  auto analysis = AnalyzeUnits(plan);
  ASSERT_TRUE(analysis.ok());
  ThreadPool pool(2);
  for (ThreadPool* target : {static_cast<ThreadPool*>(nullptr), &pool}) {
    // Paired with itself every page is identical: only with the page fast
    // path off are they sampled.
    auto stats = CollectStats(plan, *analysis, snapshot, snapshot,
                              StatsCollectorOptions(), 1, target,
                              /*page_fast_path=*/false);
    EXPECT_TRUE(stats.status().IsInvalidArgument())
        << (target == nullptr ? "inline: " : "pool: ")
        << stats.status().ToString();
  }
}

}  // namespace
}  // namespace delex
