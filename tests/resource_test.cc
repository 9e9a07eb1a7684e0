// Resource-observability tests (layer 4): tagged memory accounting
// balance across a full engine lifecycle, process readings that are
// positive with a peak that never falls, the schema-v6 resources block
// read back from the generation-history store, and the thread pool's
// one-WARN-per-run saturation latch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "delex/engine.h"
#include "harness/experiment.h"
#include "harness/programs.h"
#include "matcher/matcher.h"
#include "obs/history.h"
#include "obs/log.h"
#include "obs/mem.h"
#include "obs/trace.h"
#include "ring_series.h"
#include "shard/sharded_engine.h"
#include "text/suffix_matcher.h"

namespace delex {
namespace {

std::string FreshDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("delex-res-" + tag))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Tagged accounting
// ---------------------------------------------------------------------------

TEST(MemAccountingTest, ChargeDischargeAndPeaks) {
  obs::MemResetForTesting();
  {
    obs::ScopedMemCharge charge(obs::MemTag::kSnapshot);
    charge.Set(1000);
    EXPECT_EQ(obs::MemCurrent(obs::MemTag::kSnapshot), 1000);
    charge.Add(500);
    EXPECT_EQ(obs::MemCurrent(obs::MemTag::kSnapshot), 1500);
    charge.Set(200);  // shrink discharges the delta, peak stays
    EXPECT_EQ(obs::MemCurrent(obs::MemTag::kSnapshot), 200);
    EXPECT_EQ(obs::MemPeak(obs::MemTag::kSnapshot), 1500);
    EXPECT_EQ(obs::MemTrackedCurrent(), 200);
  }
  EXPECT_EQ(obs::MemCurrent(obs::MemTag::kSnapshot), 0);
  EXPECT_EQ(obs::MemTrackedCurrent(), 0);
  EXPECT_EQ(obs::MemTrackedPeak(), 1500);
}

TEST(MemAccountingTest, TrackedPeakIsHighWaterOfTheSumNotOfPerTagPeaks) {
  obs::MemResetForTesting();
  {
    // Two tags alive at different times: per-tag peaks are 1000 each, but
    // the tracked total never exceeded 1000 at any instant.
    obs::ScopedMemCharge a(obs::MemTag::kSnapshot, 1000);
  }
  {
    obs::ScopedMemCharge b(obs::MemTag::kMatcher, 1000);
  }
  EXPECT_EQ(obs::MemPeak(obs::MemTag::kSnapshot), 1000);
  EXPECT_EQ(obs::MemPeak(obs::MemTag::kMatcher), 1000);
  EXPECT_EQ(obs::MemTrackedPeak(), 1000);
}

TEST(MemAccountingTest, MoveTransfersAndCopyDuplicatesTheCharge) {
  obs::MemResetForTesting();
  obs::ScopedMemCharge a(obs::MemTag::kShard, 400);
  obs::ScopedMemCharge moved = std::move(a);
  EXPECT_EQ(obs::MemCurrent(obs::MemTag::kShard), 400);
  obs::ScopedMemCharge copy = moved;
  EXPECT_EQ(obs::MemCurrent(obs::MemTag::kShard), 800);
}

TEST(MemAccountingTest, StChargesTheSideItIndexes) {
  // SuffixMatch builds its automaton over the old (q) region and streams
  // the new one, so ST's charge follows |q|.
  const std::string p = "a short new region that the automaton only streams";
  std::string q;
  while (q.size() < 8 * p.size()) q += "the old region the automaton indexes. ";
  q.resize(8 * p.size());
  obs::MemResetForTesting();
  GetMatcher(MatcherKind::kST)
      .Match(p, TextSpan(0, static_cast<int64_t>(p.size())), q,
             TextSpan(0, static_cast<int64_t>(q.size())), nullptr);
  EXPECT_EQ(obs::MemPeak(obs::MemTag::kMatcher),
            static_cast<int64_t>(q.size()) *
                SuffixAutomaton::kBytesPerIndexedChar);
  EXPECT_EQ(obs::MemCurrent(obs::MemTag::kMatcher), 0);
}

TEST(MemAccountingTest, BalancesToZeroAfterEngineTeardown) {
  obs::MemResetForTesting();
  {
    ProgramSpec spec = []() {
      auto spec = MakeProgram("chair");
      EXPECT_TRUE(spec.ok());
      return std::move(spec).ValueOrDie();
    }();
    DatasetProfile profile = spec.Profile();
    profile.num_sources = 12;
    std::vector<Snapshot> series = GenerateSeries(profile, 3, 7);
    DelexEngine::Options options;
    options.work_dir = FreshDir("balance");
    options.num_threads = 2;
    DelexEngine engine(spec.plan, options);
    ASSERT_TRUE(engine.Init().ok());
    MatcherAssignment ud =
        MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kUD);
    for (size_t i = 0; i < series.size(); ++i) {
      RunStats stats;
      ASSERT_TRUE(engine
                      .RunSnapshot(series[i],
                                   i > 0 ? &series[i - 1] : nullptr, ud,
                                   &stats)
                      .ok());
    }
    // While the series is alive, its snapshot text is on the books.
    EXPECT_GT(obs::MemCurrent(obs::MemTag::kSnapshot), 0);
  }
  // Everything the run charged was scoped to an owner that is now gone:
  // the whole tracker balances back to zero, tag by tag.
  for (int t = 0; t < obs::kMemTagCount; ++t) {
    obs::MemTag tag = static_cast<obs::MemTag>(t);
    EXPECT_EQ(obs::MemCurrent(tag), 0) << obs::MemTagName(tag);
  }
  EXPECT_EQ(obs::MemTrackedCurrent(), 0);
  EXPECT_GT(obs::MemTrackedPeak(), 0);
}

TEST(MemAccountingTest, PipelineTagIsBoundedByTheRingNotTheSnapshot) {
  // The `pipeline` tag charges what the page ring's slots hold. Behind
  // each snapshot's slow page the ring fills, so the peak reaches the
  // ring's bound at 2x the ring's slots in pages; five times the pages
  // (10x) may not raise it by half. Every slot is released when the run
  // ends.
  constexpr int kThreads = 2;
  const size_t ring = DelexEngine::RingSlots(kThreads);
  auto pipeline_peak = [](size_t pages) -> int64_t {
    obs::MemResetForTesting();
    const std::vector<Snapshot> series = RingSeries(pages, 0);
    DelexEngine::Options options;
    options.work_dir = FreshDir("pipeline-" + std::to_string(pages));
    options.num_threads = kThreads;
    DelexEngine engine(MarkerPlan(), options);
    EXPECT_TRUE(engine.Init().ok());
    const MatcherAssignment st =
        MatcherAssignment::Uniform(1, MatcherKind::kST);
    for (size_t i = 0; i < series.size(); ++i) {
      EXPECT_TRUE(engine
                      .RunSnapshot(series[i], i > 0 ? &series[i - 1] : nullptr,
                                   st, nullptr)
                      .ok());
      EXPECT_EQ(obs::MemCurrent(obs::MemTag::kPipeline), 0)
          << pages << " pages, snapshot " << i;
    }
    return obs::MemPeak(obs::MemTag::kPipeline);
  };
  const int64_t small = pipeline_peak(2 * ring);
  const int64_t large = pipeline_peak(10 * ring);
  EXPECT_GT(small, 0);
  EXPECT_LE(large, small * 3 / 2) << "2x ring: " << small << " B, 10x ring: "
                                  << large << " B";
}

// ---------------------------------------------------------------------------
// Process readings
// ---------------------------------------------------------------------------

TEST(ResourceUsageTest, ProcessReadingsArePositiveAndPeakNeverFalls) {
  obs::ResourceUsage before = obs::CollectResourceUsage();
  EXPECT_GT(before.rss_bytes, 0);
  EXPECT_GT(before.vm_bytes, 0);
  EXPECT_GT(before.peak_rss_bytes, 0);
  EXPECT_GE(before.peak_rss_bytes, before.rss_bytes);

  // Peak RSS is a high-water mark: successive collections never go down,
  // even across a burst of allocation and release.
  int64_t last_peak = before.peak_rss_bytes;
  for (int i = 0; i < 5; ++i) {
    std::vector<char> burst(size_t{1} << 20, static_cast<char>(i));
    obs::ResourceUsage usage = obs::CollectResourceUsage();
    EXPECT_GE(usage.peak_rss_bytes, last_peak);
    EXPECT_GE(usage.peak_rss_bytes, usage.rss_bytes);
    last_peak = usage.peak_rss_bytes;
  }
}

// ---------------------------------------------------------------------------
// Schema-v6 resources block read back from the history store
// ---------------------------------------------------------------------------

TEST(HistoryResourcesTest, V6ResourcesBlockRoundTrips) {
  // A run-report line's resources block as schema v9 wrote it, with the
  // span-profiler rollup that v11 dropped (values fixed so the read-back
  // is exact): the old sub-block is ignored, the rest reads the same.
  std::string body =
      R"({"schema_version":9,"solution":"Delex","generation":3,)"
      R"("resources":{"rss_bytes":123456789,"vm_bytes":987654321,)"
      R"("peak_rss_bytes":222333444,"tracked_bytes":1111,)"
      R"("tracked_peak_bytes":2222,"subsystems":[)";
  for (int t = 0; t < obs::kMemTagCount; ++t) {
    if (t > 0) body += ",";
    body += std::string(R"({"tag":")") +
            obs::MemTagName(static_cast<obs::MemTag>(t)) +
            R"(","current_bytes":)" + std::to_string(10 * (t + 1)) +
            R"(,"peak_bytes":)" + std::to_string(100 * (t + 1)) + "}";
  }
  body += R"(],"profile":{"total_samples":500,"lost_samples":3,)"
          R"("top_spans":[{"span":"eval_page","self_samples":300},)"
          R"({"span":"match_st","self_samples":150}]}}})";

  obs::HistoryRecord parsed;
  ASSERT_TRUE(
      obs::HistoryStore::ParseLine(obs::HistoryStore::FrameLine(body), &parsed)
          .ok());
  EXPECT_EQ(parsed.gen, 3);
  ASSERT_TRUE(parsed.has_resources);
  EXPECT_EQ(parsed.resources.rss_bytes, 123456789);
  EXPECT_EQ(parsed.resources.vm_bytes, 987654321);
  EXPECT_EQ(parsed.resources.peak_rss_bytes, 222333444);
  EXPECT_EQ(parsed.resources.tracked_bytes, 1111);
  EXPECT_EQ(parsed.resources.tracked_peak_bytes, 2222);
  ASSERT_EQ(parsed.resources.subsystems.size(),
            static_cast<size_t>(obs::kMemTagCount));
  for (int t = 0; t < obs::kMemTagCount; ++t) {
    EXPECT_EQ(parsed.resources.subsystems[t].tag,
              obs::MemTagName(static_cast<obs::MemTag>(t)));
    EXPECT_EQ(parsed.resources.subsystems[t].current_bytes, 10 * (t + 1));
    EXPECT_EQ(parsed.resources.subsystems[t].peak_bytes, 100 * (t + 1));
  }
}

TEST(HistoryResourcesTest, PreLayer4RecordsParseWithoutResources) {
  // An old store's record shape: no resources block at all.
  obs::HistoryRecord parsed;
  ASSERT_TRUE(obs::HistoryStore::ParseLine(
                  obs::HistoryStore::FrameLine(
                      R"({"gen":1,"solution":"Delex","warmup":true})"),
                  &parsed)
                  .ok());
  EXPECT_EQ(parsed.gen, 1);
  EXPECT_FALSE(parsed.has_resources);
}

// ---------------------------------------------------------------------------
// Thread-pool saturation
// ---------------------------------------------------------------------------

/// WARN lines logged while a WarnCapture lives.
std::vector<std::string>& CapturedWarnings() {
  static std::vector<std::string> lines;
  return lines;
}

void CaptureWarnings(obs::LogLevel level, const std::string& line) {
  if (level == obs::LogLevel::kWARN) CapturedWarnings().push_back(line);
}

/// Routes WARN lines into a fresh CapturedWarnings() while it lives.
struct WarnCapture {
  WarnCapture() {
    CapturedWarnings().clear();
    obs::SetLogSinkForTesting(&CaptureWarnings);
  }
  ~WarnCapture() { obs::SetLogSinkForTesting(nullptr); }
  WarnCapture(const WarnCapture&) = delete;
  WarnCapture& operator=(const WarnCapture&) = delete;
};

/// The captured "thread pool saturated" WARN lines.
int64_t SaturationWarnings() {
  int64_t count = 0;
  for (const std::string& line : CapturedWarnings()) {
    if (line.find("thread pool saturated") != std::string::npos) ++count;
  }
  return count;
}

TEST(ThreadPoolObsTest, SaturationWarnOncePerRun) {
  // Normal sharded operation is not saturation: 4 shards on a 4-wide pool
  // each keep up to a window of 2·4 + 2 pages queued (40 > 4 × 4), and the
  // pool allows for every live TaskGroup's window.
  {
    ProgramSpec spec = *MakeProgram("play");
    DatasetProfile profile = spec.Profile();
    profile.num_sources = 48;
    const std::vector<Snapshot> series = GenerateSeries(profile, 2, 5);
    shard::ShardedEngine::Options options;
    options.work_dir = FreshDir("saturation-shards");
    options.num_shards = 4;
    options.num_threads = 4;
    shard::ShardedEngine engine(spec.plan, options);
    ASSERT_TRUE(engine.Init().ok());
    const MatcherAssignment st =
        MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kST);
    WarnCapture capture;
    for (size_t i = 0; i < series.size(); ++i) {
      EXPECT_TRUE(engine
                      .RunSnapshot(series[i], i > 0 ? &series[i - 1] : nullptr,
                                   st, nullptr)
                      .ok());
    }
    EXPECT_EQ(SaturationWarnings(), 0);
  }

  obs::MemResetForTesting();
  {
    WarnCapture capture;
    ThreadPool pool(1);
    // Gate the single worker so submissions pile up past 4x the workers.
    std::atomic<bool> release{false};
    pool.Submit([&release]() {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return Status::OK();
    });
    for (int i = 0; i < 16; ++i) {
      pool.Submit([]() { return Status::OK(); });
    }
    // Queued tasks are on the books while they wait...
    EXPECT_GT(obs::MemCurrent(obs::MemTag::kThreadPool), 0);
    // ...and the saturation WARN fired exactly once despite 12+ deep
    // submissions past the threshold.
    EXPECT_EQ(SaturationWarnings(), 1);
    release.store(true, std::memory_order_release);
    ASSERT_TRUE(pool.Wait().ok());
    EXPECT_EQ(obs::MemCurrent(obs::MemTag::kThreadPool), 0);

    // Wait() re-arms the once-per-run latch: the next saturation warns
    // again.
    std::atomic<bool> release2{false};
    pool.Submit([&release2]() {
      while (!release2.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return Status::OK();
    });
    for (int i = 0; i < 16; ++i) {
      pool.Submit([]() { return Status::OK(); });
    }
    EXPECT_EQ(SaturationWarnings(), 2);
    release2.store(true, std::memory_order_release);
    ASSERT_TRUE(pool.Wait().ok());
  }
  EXPECT_EQ(obs::MemCurrent(obs::MemTag::kThreadPool), 0);
}

}  // namespace
}  // namespace delex
