// Sharded-engine tests: the hash-partitioned multi-shard engine must be
// invisible to every observer.
//
// Core contracts under test: (1) the partitioning invariants of
// shard/partition.h — stability under page add/delete, disjoint cover,
// order/did preservation; (2) merged result rows byte-identical (same
// rows, same order — not canonicalized) to a single-engine run at every
// shard count × pool width × fast-path setting; (3) per-shard reuse files
// byte-identical to a single engine run over that shard's page subset,
// copied out into a sub-snapshot of its own.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "delex/engine.h"
#include "harness/experiment.h"
#include "harness/programs.h"
#include "shard/partition.h"
#include "shard/sharded_engine.h"

namespace delex {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  std::string dir = (fs::temp_directory_path() / ("delex-shardtest-" + tag))
                        .string();
  fs::remove_all(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << path;
  return std::string((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
}

/// Bytes of every file directly under `dir`, keyed by file name.
std::map<std::string, std::string> DirFileBytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    files[entry.path().filename().string()] =
        ReadFileBytes(entry.path().string());
  }
  return files;
}

/// Exact row-sequence equality — order matters, unlike SameResults on
/// canonicalized rows. The merge contract is byte-identical output.
bool ExactRows(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (TupleLess(a[i], b[i]) || TupleLess(b[i], a[i])) return false;
  }
  return true;
}

std::vector<Snapshot> ChurnSeries(int pages, int snapshots, uint64_t seed) {
  DatasetProfile profile = DatasetProfile::DBLife();
  profile.num_sources = pages;
  // Heavy churn: every snapshot adds and deletes ~15% of pages, so the
  // stability invariant is exercised hard, not incidentally.
  profile.page_add_rate = 0.15;
  profile.page_delete_rate = 0.15;
  return GenerateSeries(profile, snapshots, seed);
}

// ---------------------------------------------------------------------------
// Partitioning invariants
// ---------------------------------------------------------------------------

TEST(ShardPartitionTest, SplitIsDisjointCoverPreservingOrderAndDids) {
  DatasetProfile profile = DatasetProfile::DBLife();
  profile.num_sources = 40;
  Snapshot snapshot = GenerateSeries(profile, 1, /*seed=*/7)[0];

  for (int num_shards : {1, 2, 4, 8}) {
    std::vector<SnapshotView> parts =
        shard::RouteSnapshot(snapshot, num_shards);
    ASSERT_EQ(parts.size(), static_cast<size_t>(num_shards));
    size_t total = 0;
    std::set<int64_t> seen_dids;
    for (int k = 0; k < num_shards; ++k) {
      EXPECT_EQ(&parts[k].snapshot(), &snapshot);
      int64_t last_did = -1;
      for (size_t j = 0; j < parts[k].NumPages(); ++j) {
        const Page& page = parts[k].page(j);
        // Routed where the router says, exactly once.
        EXPECT_EQ(shard::ShardOfUrl(page.url, num_shards), k) << page.url;
        EXPECT_TRUE(seen_dids.insert(page.did).second)
            << "did " << page.did << " in two shards";
        // Global dids stay monotone within the shard (order preservation).
        EXPECT_GT(page.did, last_did);
        last_did = page.did;
        // The view indexes the snapshot's own page: nothing is copied.
        EXPECT_EQ(&page, &snapshot.pages()[static_cast<size_t>(page.did)]);
      }
      total += parts[k].NumPages();
    }
    EXPECT_EQ(total, snapshot.NumPages()) << num_shards << " shards";
  }
}

TEST(ShardPartitionTest, AssignmentStableUnderPageAddAndDelete) {
  std::vector<Snapshot> series = ChurnSeries(30, 5, /*seed=*/11);
  const int num_shards = 4;
  // A URL surviving into any later snapshot must stay in its shard, no
  // matter how many pages around it were added or deleted (dids shift;
  // the URL hash does not).
  std::map<std::string, int> first_shard;
  bool churn_happened = false;
  for (size_t i = 0; i < series.size(); ++i) {
    std::vector<SnapshotView> parts =
        shard::RouteSnapshot(series[i], num_shards);
    for (int k = 0; k < num_shards; ++k) {
      for (size_t j = 0; j < parts[k].NumPages(); ++j) {
        const Page& page = parts[k].page(j);
        auto [it, inserted] = first_shard.emplace(page.url, k);
        if (!inserted) {
          EXPECT_EQ(it->second, k) << page.url << " migrated at snapshot "
                                   << i;
        }
      }
    }
    if (i > 0 && series[i].NumPages() != series[i - 1].NumPages()) {
      churn_happened = true;
    }
  }
  // The series must actually have churned, or the test proves nothing.
  EXPECT_TRUE(churn_happened);
  EXPECT_GT(first_shard.size(), series[0].NumPages());
}

// ---------------------------------------------------------------------------
// Merged output identity
// ---------------------------------------------------------------------------

struct ReferenceRun {
  std::vector<std::vector<Tuple>> per_snapshot;  // exact row order
};

ReferenceRun RunSingleEngine(const ProgramSpec& spec,
                             const std::vector<Snapshot>& series,
                             bool disable_fast_path, const std::string& tag) {
  ReferenceRun run;
  DelexEngine::Options options;
  options.work_dir = FreshDir(tag);
  options.disable_page_fast_path = disable_fast_path;
  DelexEngine engine(spec.plan, options);
  EXPECT_TRUE(engine.Init().ok());
  MatcherAssignment assignment =
      MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kST);
  for (size_t i = 0; i < series.size(); ++i) {
    auto rows = engine.RunSnapshot(series[i], i > 0 ? &series[i - 1] : nullptr,
                                   assignment, nullptr);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    run.per_snapshot.push_back(std::move(rows).ValueOrDie());
  }
  return run;
}

TEST(ShardedEngineTest, MergedRowsByteIdenticalAcrossShardGrid) {
  ProgramSpec spec = *MakeProgram("chair");
  std::vector<Snapshot> series = ChurnSeries(24, 4, /*seed=*/42);

  for (bool disable_fast_path : {false, true}) {
    ReferenceRun reference = RunSingleEngine(
        spec, series, disable_fast_path,
        std::string("ref-fp") + (disable_fast_path ? "0" : "1"));
    for (int num_shards : {1, 2, 4, 8}) {
      for (int threads : {1, 3}) {
        shard::ShardedEngine::Options options;
        options.work_dir = FreshDir(
            "grid-s" + std::to_string(num_shards) + "-t" +
            std::to_string(threads) + (disable_fast_path ? "-fp0" : "-fp1"));
        options.num_shards = num_shards;
        options.num_threads = threads;
        options.disable_page_fast_path = disable_fast_path;
        shard::ShardedEngine engine(spec.plan, options);
        ASSERT_TRUE(engine.Init().ok());
        MatcherAssignment assignment =
            MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kST);
        for (size_t i = 0; i < series.size(); ++i) {
          RunStats stats;
          auto rows = engine.RunSnapshot(
              series[i], i > 0 ? &series[i - 1] : nullptr, assignment, &stats);
          ASSERT_TRUE(rows.ok()) << rows.status().ToString();
          EXPECT_TRUE(ExactRows(reference.per_snapshot[i], *rows))
              << "shards=" << num_shards << " threads=" << threads
              << " fast_path_off=" << disable_fast_path << " snapshot=" << i;
          EXPECT_EQ(stats.pages,
                    static_cast<int64_t>(series[i].NumPages()));
        }
      }
    }
  }
}

TEST(ShardedEngineTest, ShardReuseFilesMatchSingleEngineOverSubset) {
  // Each shard's reuse files must be byte-identical to a single engine
  // run over just that shard's page subset — the shard layer adds no
  // bytes of its own, so any shard can be debugged with unsharded tools.
  ProgramSpec spec = *MakeProgram("talk");
  std::vector<Snapshot> series = ChurnSeries(20, 3, /*seed=*/5);
  const int num_shards = 3;

  shard::ShardedEngine::Options options;
  options.work_dir = FreshDir("reuse-bytes");
  options.num_shards = num_shards;
  options.num_threads = 2;
  shard::ShardedEngine engine(spec.plan, options);
  ASSERT_TRUE(engine.Init().ok());
  MatcherAssignment assignment =
      MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kST);
  for (size_t i = 0; i < series.size(); ++i) {
    auto rows = engine.RunSnapshot(series[i], i > 0 ? &series[i - 1] : nullptr,
                                   assignment, nullptr);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  }

  // Reference sub-snapshots: each shard's pages copied out, global dids
  // and snapshot order kept.
  std::vector<std::vector<Snapshot>> splits;
  for (const Snapshot& snapshot : series) {
    std::vector<Snapshot> parts(static_cast<size_t>(num_shards));
    for (const Page& page : snapshot.pages()) {
      parts[static_cast<size_t>(shard::ShardOfUrl(page.url, num_shards))]
          .AddExistingPage(page);
    }
    splits.push_back(std::move(parts));
  }
  for (int k = 0; k < num_shards; ++k) {
    DelexEngine::Options single_options;
    single_options.work_dir = FreshDir("reuse-bytes-ref" + std::to_string(k));
    DelexEngine single(spec.plan, single_options);
    ASSERT_TRUE(single.Init().ok());
    for (size_t i = 0; i < series.size(); ++i) {
      auto rows = single.RunSnapshot(
          splits[i][static_cast<size_t>(k)],
          i > 0 ? &splits[i - 1][static_cast<size_t>(k)] : nullptr, assignment,
          nullptr);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    }
    EXPECT_EQ(DirFileBytes(single_options.work_dir),
              DirFileBytes(engine.ShardWorkDir(k)))
        << "shard " << k;
  }
}

TEST(ShardedEngineTest, ResumeContinuesEachShardAcrossProcesses) {
  ProgramSpec spec = *MakeProgram("talk");
  std::vector<Snapshot> series = ChurnSeries(18, 3, /*seed=*/77);
  const std::string dir = FreshDir("resume");

  shard::ShardedEngine::Options options;
  options.work_dir = dir;
  options.num_shards = 2;
  options.num_threads = 2;
  MatcherAssignment assignment;
  {
    shard::ShardedEngine engine(spec.plan, options);
    ASSERT_TRUE(engine.Init().ok());
    assignment = MatcherAssignment::Uniform(engine.NumUnits(),
                                            MatcherKind::kST);
    ASSERT_TRUE(engine.RunSnapshot(series[0], nullptr, assignment, nullptr)
                    .ok());
    ASSERT_TRUE(
        engine.RunSnapshot(series[1], &series[0], assignment, nullptr).ok());
    EXPECT_EQ(engine.generation(), 2);
  }
  ReferenceRun reference =
      RunSingleEngine(spec, series, /*disable_fast_path=*/false, "resume-ref");
  {
    shard::ShardedEngine engine(spec.plan, options);
    ASSERT_TRUE(engine.Init().ok());
    ASSERT_TRUE(engine.Resume(2).ok());
    auto rows = engine.RunSnapshot(series[2], &series[1], assignment, nullptr);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_TRUE(ExactRows(reference.per_snapshot[2], *rows));
  }
}

}  // namespace
}  // namespace delex
