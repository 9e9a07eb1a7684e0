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
#include <map>
#include <memory>
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

/// Runs `series` through a fresh engine at `num_threads`, uniform
/// `matcher` assignment, collecting per-snapshot canonical results and the
/// final captured reuse files.
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
                                   assignment, &stats);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    run.per_snapshot.push_back(Canonicalize(std::move(rows).ValueOrDie()));
    run.counters.push_back(CountValuedFields(stats));
  }
  run.reuse_files = ReuseFileBytes(options.work_dir);
  return run;
}

/// Profile tag × matcher: the full determinism matrix of the issue.
struct Case {
  const char* program;  // chair → DBLife profile, play → Wikipedia
  MatcherKind matcher;
};

class ParallelDeterminism : public ::testing::TestWithParam<Case> {};

TEST_P(ParallelDeterminism, ThreadCountsAgreeByteForByte) {
  const Case& c = GetParam();
  ProgramSpec spec = *MakeProgram(c.program);
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 15;
  std::vector<Snapshot> series = GenerateSeries(profile, 3, 97);

  std::string tag_base = std::string(c.program) + "-" +
                         MatcherKindName(c.matcher) + "-t";
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
         MatcherKindName(info.param.matcher);
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
                      Case{"play", MatcherKind::kRU}),
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

RingRun RunUnsharded(const std::vector<Snapshot>& series, int threads) {
  DelexEngine::Options options;
  options.work_dir = FreshDir("ring-t" + std::to_string(threads));
  options.num_threads = threads;
  DelexEngine engine(MarkerPlan(), options);
  return RunRingSeries(&engine, options.work_dir, series);
}

RingRun RunTwoShards(const std::vector<Snapshot>& series, int threads) {
  shard::ShardedEngine::Options options;
  options.work_dir = FreshDir("ring-s2-t" + std::to_string(threads));
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
