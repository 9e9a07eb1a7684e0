// Corrupt-artifact degradation: a work dir whose previous-generation
// files were truncated, bit-flipped, or version-skewed must never fail a
// run or change its results — the engine drops the corrupt artifact,
// re-extracts the affected pages from scratch, and the final result
// multiset is identical to a clean run ("degrade, never miscompute").
//
// Several corruption shapes here reproduce fuzzer findings against the
// decoders (giant length prefix, truncated page header); committing them
// as tests keeps the fixes regression-locked at the engine level too.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "delex/engine.h"
#include "harness/experiment.h"
#include "harness/programs.h"
#include "shard/sharded_engine.h"

namespace delex {
namespace {

std::string FreshDir(const std::string& tag) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("delex-corrupt-" + tag)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

class CorruptInputTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetProfile profile = DatasetProfile::DBLife();
    profile.num_sources = 10;
    series_ = GenerateSeries(profile, 2, /*seed=*/1234);
    auto program = MakeProgram("talk");
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    plan_ = program->plan;

    // Clean reference: both generations in a pristine work dir, one per
    // test so tests running as parallel processes never share it.
    const std::string dir = FreshDir(
        std::string("baseline-") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    DelexEngine::Options options;
    options.work_dir = dir;
    DelexEngine engine(plan_, options);
    ASSERT_TRUE(engine.Init().ok());
    num_units_ = engine.NumUnits();
    auto rows0 = engine.RunSnapshot(series_[0], nullptr, Assignment(), nullptr);
    ASSERT_TRUE(rows0.ok()) << rows0.status().ToString();
    auto rows1 = engine.RunSnapshot(series_[1], &series_[0], Assignment(),
                                    nullptr);
    ASSERT_TRUE(rows1.ok()) << rows1.status().ToString();
    baseline_ = Canonicalize(std::move(*rows1));
  }

  MatcherAssignment Assignment() const {
    return MatcherAssignment::Uniform(num_units_, MatcherKind::kST);
  }

  /// Runs generation 0 into a fresh work dir, lets `corrupt` damage the
  /// captured artifacts, then resumes with a new engine instance and runs
  /// generation 1. Returns the (canonicalized) generation-1 results.
  std::vector<Tuple> RunWithCorruption(
      const std::string& tag,
      const std::function<void(const std::string& dir)>& corrupt,
      RunStats* stats) {
    const std::string dir = FreshDir(tag);
    {
      DelexEngine::Options options;
      options.work_dir = dir;
      DelexEngine engine(plan_, options);
      EXPECT_TRUE(engine.Init().ok());
      auto rows0 =
          engine.RunSnapshot(series_[0], nullptr, Assignment(), nullptr);
      EXPECT_TRUE(rows0.ok()) << rows0.status().ToString();
    }
    corrupt(dir);
    DelexEngine::Options options;
    options.work_dir = dir;
    DelexEngine engine(plan_, options);
    EXPECT_TRUE(engine.Init().ok());
    EXPECT_TRUE(engine.Resume(1).ok());
    auto rows1 =
        engine.RunSnapshot(series_[1], &series_[0], Assignment(), stats);
    EXPECT_TRUE(rows1.ok()) << rows1.status().ToString();
    if (!rows1.ok()) return {};
    return Canonicalize(std::move(*rows1));
  }

  std::vector<Snapshot> series_;
  xlog::PlanNodePtr plan_;
  size_t num_units_ = 0;
  std::vector<Tuple> baseline_;
};

TEST_F(CorruptInputTest, TruncatedInputFileDegradesToCleanResults) {
  RunStats stats;
  auto rows = RunWithCorruption(
      "trunc-in",
      [&](const std::string& dir) {
        const std::string path = dir + "/unit0.gen0.in";
        std::string bytes = ReadFile(path);
        WriteFile(path, bytes.substr(0, bytes.size() / 2));
      },
      &stats);
  EXPECT_EQ(rows, baseline_);
  EXPECT_GT(stats.reuse_corrupt_drops, 0);
}

TEST_F(CorruptInputTest, TruncatedOutputFileDegradesToCleanResults) {
  RunStats stats;
  auto rows = RunWithCorruption(
      "trunc-out",
      [&](const std::string& dir) {
        const std::string path = dir + "/unit0.gen0.out";
        std::string bytes = ReadFile(path);
        WriteFile(path, bytes.substr(0, bytes.size() / 3));
      },
      &stats);
  EXPECT_EQ(rows, baseline_);
  EXPECT_GT(stats.reuse_corrupt_drops, 0);
}

TEST_F(CorruptInputTest, MagicVersionSkewDegradesToCleanResults) {
  RunStats stats;
  auto rows = RunWithCorruption(
      "magic-skew",
      [&](const std::string& dir) {
        // "DLXRV2IN" -> "DLXRV1IN": an older/newer format generation must
        // be rejected wholesale at open, not half-parsed.
        const std::string path = dir + "/unit0.gen0.in";
        std::string bytes = ReadFile(path);
        const size_t at = bytes.find("DLXRV2IN");
        ASSERT_NE(at, std::string::npos);
        bytes[at + 5] = '1';
        WriteFile(path, bytes);
      },
      &stats);
  EXPECT_EQ(rows, baseline_);
  EXPECT_GT(stats.reuse_corrupt_drops, 0);
}

TEST_F(CorruptInputTest, GiantLengthPrefixDegradesToCleanResults) {
  // Fuzzer regression: an all-ones length prefix once overflowed the
  // reader's `8 + length` buffer math; it must now be a clean Corruption
  // at the storage layer and a degraded unit at the engine layer.
  RunStats stats;
  auto rows = RunWithCorruption(
      "giant-length",
      [&](const std::string& dir) {
        const std::string path = dir + "/unit0.gen0.in";
        std::string bytes = ReadFile(path);
        for (size_t i = 0; i < 8 && i < bytes.size(); ++i) bytes[i] = '\xff';
        WriteFile(path, bytes);
      },
      &stats);
  EXPECT_EQ(rows, baseline_);
  EXPECT_GT(stats.reuse_corrupt_drops, 0);
}

TEST_F(CorruptInputTest, BitFlippedRecordBodyDegradesToCleanResults) {
  RunStats stats;
  auto rows = RunWithCorruption(
      "bit-flip-in",
      [&](const std::string& dir) {
        // Flip one bit deep in the record stream (past the magic), where
        // it lands in a length prefix or an encoded payload.
        const std::string path = dir + "/unit0.gen0.in";
        std::string bytes = ReadFile(path);
        ASSERT_GT(bytes.size(), 40u);
        bytes[40] = static_cast<char>(bytes[40] ^ 0x80);
        WriteFile(path, bytes);
      },
      &stats);
  EXPECT_EQ(rows, baseline_);
  // A mid-body flip may corrupt a decoded value without breaking framing
  // (then matching simply finds nothing to reuse) or break the scan (then
  // the unit is dropped) — either way results above stay identical, so no
  // drop-count assertion here.
}

TEST_F(CorruptInputTest, CorruptIndexSidecarDegradesToCleanResults) {
  RunStats stats;
  auto rows = RunWithCorruption(
      "bit-flip-idx",
      [&](const std::string& dir) {
        const std::string path = dir + "/unit0.gen0.idx";
        std::string bytes = ReadFile(path);
        ASSERT_GT(bytes.size(), 24u);
        bytes[24] = static_cast<char>(bytes[24] ^ 0x40);
        WriteFile(path, bytes);
      },
      &stats);
  // A bad index never even costs reuse: the raw tier falls back to the
  // decode-copy tier (or the decode path), results identical.
  EXPECT_EQ(rows, baseline_);
  EXPECT_EQ(stats.reuse_corrupt_drops, 0);
}

TEST_F(CorruptInputTest, MissingIndexSidecarDegradesToCleanResults) {
  RunStats stats;
  auto rows = RunWithCorruption(
      "missing-idx",
      [&](const std::string& dir) {
        std::filesystem::remove(dir + "/unit0.gen0.idx");
      },
      &stats);
  EXPECT_EQ(rows, baseline_);
  EXPECT_EQ(stats.reuse_corrupt_drops, 0);
}

TEST_F(CorruptInputTest, TruncatedResultCacheDegradesToCleanResults) {
  RunStats stats;
  auto rows = RunWithCorruption(
      "trunc-results",
      [&](const std::string& dir) {
        const std::string path = dir + "/results.gen0";
        std::string bytes = ReadFile(path);
        WriteFile(path, bytes.substr(0, bytes.size() / 2));
      },
      &stats);
  EXPECT_EQ(rows, baseline_);
  // The truncation either hits mid-scan (cache dropped, counted) or the
  // damaged tail is never reached; identical pages demote either way.
}

TEST_F(CorruptInputTest, ResultCacheMagicSwapDisablesFastPath) {
  RunStats stats;
  auto rows = RunWithCorruption(
      "results-magic",
      [&](const std::string& dir) {
        // Swap in a *reuse-file* magic: right family, wrong file kind.
        const std::string path = dir + "/results.gen0";
        std::string bytes = ReadFile(path);
        const size_t at = bytes.find("DLXRV2RS");
        ASSERT_NE(at, std::string::npos);
        bytes.replace(at, 8, "DLXRV2IN");
        WriteFile(path, bytes);
      },
      &stats);
  EXPECT_EQ(rows, baseline_);
  // Open rejects the cache, so no page takes the identical fast path.
  EXPECT_EQ(stats.pages_identical, 0);
}

TEST_F(CorruptInputTest, TornShardReuseFileDegradesOnlyThatShard) {
  // Sharded run with one shard's reuse file torn mid-record (a crash
  // during capture): the damaged shard drops its reuse and recomputes;
  // the OTHER shards' files are untouched and the merged results still
  // equal the clean baseline.
  const std::string dir = FreshDir("torn-shard");
  const int num_shards = 3;
  shard::ShardedEngine::Options options;
  options.work_dir = dir;
  options.num_shards = num_shards;
  options.num_threads = 2;
  {
    shard::ShardedEngine engine(plan_, options);
    ASSERT_TRUE(engine.Init().ok());
    ASSERT_TRUE(
        engine.RunSnapshot(series_[0], nullptr, Assignment(), nullptr).ok());
  }
  // Tear shard 1's unit reuse input mid-record.
  const std::string torn_path = dir + "/shard1/unit0.gen0.in";
  std::string torn_bytes = ReadFile(torn_path);
  ASSERT_GT(torn_bytes.size(), 2u);
  WriteFile(torn_path, torn_bytes.substr(0, torn_bytes.size() / 2));

  shard::ShardedEngine engine(plan_, options);
  ASSERT_TRUE(engine.Init().ok());
  ASSERT_TRUE(engine.Resume(1).ok());
  RunStats stats;
  shard::ShardedEngine::ShardRunStats shard_stats;
  std::vector<MatcherAssignment> assignments(
      static_cast<size_t>(num_shards), Assignment());
  auto rows = engine.RunSnapshot(series_[1], &series_[0], assignments, &stats,
                                 &shard_stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(Canonicalize(std::move(*rows)), baseline_);
  // Only the torn shard registered corruption; the others reused cleanly.
  ASSERT_EQ(shard_stats.per_shard.size(), static_cast<size_t>(num_shards));
  EXPECT_GT(shard_stats.per_shard[1].reuse_corrupt_drops, 0);
  EXPECT_EQ(shard_stats.per_shard[0].reuse_corrupt_drops, 0);
  EXPECT_EQ(shard_stats.per_shard[2].reuse_corrupt_drops, 0);
  EXPECT_GT(stats.reuse_corrupt_drops, 0);  // merged view folds the drop in
}

TEST_F(CorruptInputTest, EveryArtifactCorruptSimultaneously) {
  RunStats stats;
  auto rows = RunWithCorruption(
      "all-corrupt",
      [&](const std::string& dir) {
        // 10 bytes cannot even hold the magic record (8-byte length
        // prefix + 8 magic bytes), so every open-time check trips.
        for (const char* name :
             {"/unit0.gen0.in", "/unit0.gen0.out", "/unit0.gen0.idx",
              "/results.gen0"}) {
          const std::string path = dir + name;
          std::string bytes = ReadFile(path);
          WriteFile(path, bytes.substr(0, 10));
        }
      },
      &stats);
  EXPECT_EQ(rows, baseline_);
  EXPECT_GT(stats.reuse_corrupt_drops, 0);
  // Nothing identical can survive without a result cache.
  EXPECT_EQ(stats.pages_identical, 0);
}

}  // namespace
}  // namespace delex
