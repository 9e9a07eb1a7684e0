// Identical-page fast-path equivalence: with the whole-page fast path on,
// every observer that matters — the result multiset per snapshot and the
// *decoded* reuse records captured for the next generation — must equal
// the fast-path-off run, across both dataset profiles × all four matchers
// × serial and parallel execution. File bytes are NOT compared across
// on/off: the copy path may order a group's outputs differently than a
// fresh capture; the decoded-record multiset is the format's meaning.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "delex/engine.h"
#include "harness/experiment.h"
#include "harness/programs.h"
#include "run_stats_counters.h"
#include "storage/reuse_file.h"

namespace delex {
namespace {

std::string FreshDir(const std::string& tag) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("delex-fastpath-" + tag)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// One page's reuse records in an order- and ordinal-independent form:
/// inputs keyed by (region, hash, context), outputs keyed by (producing
/// input's region + context, payload). itids are ordinals, so they are
/// compared via the input they name, not by value.
std::vector<std::string> CanonicalPageRecords(
    const std::vector<InputTupleRec>& inputs,
    const std::vector<OutputTupleRec>& outputs) {
  std::vector<std::string> keys;
  std::vector<std::string> input_key(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    std::string key;
    key += std::to_string(inputs[i].region.start) + ":" +
           std::to_string(inputs[i].region.end) + ":" +
           std::to_string(inputs[i].region_hash) + ":";
    EncodeTuple(inputs[i].context, &key);
    input_key[i] = key;
    keys.push_back("I " + key);
  }
  for (const OutputTupleRec& out : outputs) {
    std::string key = "O ";
    EXPECT_GE(out.itid, 0);
    EXPECT_LT(static_cast<size_t>(out.itid), inputs.size());
    key += input_key[static_cast<size_t>(out.itid)] + " -> ";
    EncodeTuple(out.payload, &key);
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Decoded, canonicalized reuse records of every unit file under `dir`:
/// unit file name -> per-page sorted record keys.
std::map<std::string, std::vector<std::vector<std::string>>> DecodeReuseFiles(
    const std::string& dir, int num_pages) {
  std::map<std::string, std::vector<std::vector<std::string>>> decoded;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.size() < 3 || name.substr(name.size() - 3) != ".in") continue;
    std::string prefix = entry.path().string();
    prefix.resize(prefix.size() - 3);
    UnitReuseReader reader;
    EXPECT_TRUE(reader.Open(prefix).ok()) << prefix;
    auto& pages = decoded[name.substr(0, name.size() - 3)];
    for (int did = 0; did < num_pages; ++did) {
      std::vector<InputTupleRec> inputs;
      std::vector<OutputTupleRec> outputs;
      EXPECT_TRUE(reader.SeekPage(did, &inputs, &outputs).ok());
      pages.push_back(CanonicalPageRecords(inputs, outputs));
    }
    EXPECT_TRUE(reader.Close().ok());
  }
  return decoded;
}

struct EngineRun {
  std::vector<std::vector<Tuple>> per_snapshot;  // canonicalized results
  std::vector<RunStats> stats;                   // one per snapshot
  std::map<std::string, std::vector<std::vector<std::string>>> reuse_records;
};

EngineRun RunEngine(const ProgramSpec& spec,
                    const std::vector<Snapshot>& series, MatcherKind matcher,
                    int num_threads, bool fast_path, const std::string& tag) {
  EngineRun run;
  DelexEngine::Options options;
  options.work_dir = FreshDir(tag);
  options.num_threads = num_threads;
  options.disable_page_fast_path = !fast_path;
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
    run.stats.push_back(std::move(stats));
  }
  run.reuse_records = DecodeReuseFiles(
      options.work_dir, static_cast<int>(series.back().NumPages()));
  return run;
}

struct Case {
  const char* program;  // chair → DBLife profile, play → Wikipedia
  MatcherKind matcher;
};

class FastPathEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(FastPathEquivalence, OnOffAgreeAtEveryThreadCount) {
  const Case& c = GetParam();
  ProgramSpec spec = *MakeProgram(c.program);
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 14;
  std::vector<Snapshot> series = GenerateSeries(profile, 3, 41);
  const bool dblife = profile.identical_fraction >= 0.9;

  std::string tag_base = std::string(c.program) + "-" +
                         MatcherKindName(c.matcher) + "-t";
  for (int threads : {1, 2, 8}) {
    std::string tag = tag_base + std::to_string(threads);
    EngineRun off =
        RunEngine(spec, series, c.matcher, threads, false, tag + "-off");
    EngineRun on =
        RunEngine(spec, series, c.matcher, threads, true, tag + "-on");

    // Theorem-1 equivalence: identical result tuples per snapshot.
    ASSERT_EQ(off.per_snapshot.size(), on.per_snapshot.size());
    for (size_t i = 0; i < off.per_snapshot.size(); ++i) {
      EXPECT_TRUE(SameResults(off.per_snapshot[i], on.per_snapshot[i]))
          << c.program << " " << MatcherKindName(c.matcher)
          << " threads=" << threads << " snapshot=" << i;
    }

    // The next generation's reuse records must decode identically — the
    // raw passthrough relocated, never altered.
    ASSERT_EQ(off.reuse_records.size(), on.reuse_records.size());
    for (const auto& [unit, off_pages] : off.reuse_records) {
      auto it = on.reuse_records.find(unit);
      ASSERT_NE(it, on.reuse_records.end()) << unit;
      ASSERT_EQ(off_pages.size(), it->second.size()) << unit;
      for (size_t p = 0; p < off_pages.size(); ++p) {
        EXPECT_EQ(off_pages[p], it->second[p])
            << unit << " page " << p << " threads=" << threads;
      }
    }

    // The fast path actually fired where the corpus makes it possible.
    int64_t pages_identical = 0;
    int64_t raw_bytes = 0;
    int64_t skipped = 0;
    for (const RunStats& s : on.stats) {
      pages_identical += s.pages_identical;
      raw_bytes += s.raw_bytes_copied;
      skipped += s.records_decoded_skipped;
    }
    if (dblife) {
      EXPECT_GT(pages_identical, 0) << "threads=" << threads;
      EXPECT_GT(raw_bytes, 0) << "threads=" << threads;
      EXPECT_GE(skipped, 0);
    }
    for (const RunStats& s : off.stats) {
      EXPECT_EQ(s.pages_identical, 0);
      EXPECT_EQ(s.raw_bytes_copied, 0);
    }
  }
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return std::string(info.param.program) + "_" +
         MatcherKindName(info.param.matcher);
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndMatchers, FastPathEquivalence,
    ::testing::Values(Case{"chair", MatcherKind::kDN},   // DBLife profile
                      Case{"chair", MatcherKind::kUD},
                      Case{"chair", MatcherKind::kST},
                      Case{"chair", MatcherKind::kRU},
                      Case{"play", MatcherKind::kDN},    // Wikipedia profile
                      Case{"play", MatcherKind::kUD},
                      Case{"play", MatcherKind::kST},
                      Case{"play", MatcherKind::kRU}),
    CaseName);

TEST(FastPath, ThreadCountsAgreeByteForByteWithFastPathOn) {
  // The parallel determinism contract must survive the fast path: for a
  // fixed fast-path setting, every thread count produces byte-identical
  // reuse files (including .idx and the result cache) and the same
  // count-valued stats at every snapshot.
  ProgramSpec spec = *MakeProgram("chair");
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 14;
  std::vector<Snapshot> series = GenerateSeries(profile, 3, 43);

  struct Run {
    std::map<std::string, std::string> files;
    std::vector<std::map<std::string, int64_t>> counters;  // per snapshot
  };
  auto run_at = [&](int threads) {
    Run run;
    DelexEngine::Options options;
    options.work_dir = FreshDir("bytes-t" + std::to_string(threads));
    options.num_threads = threads;
    DelexEngine engine(spec.plan, options);
    EXPECT_TRUE(engine.Init().ok());
    MatcherAssignment assignment =
        MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kST);
    for (size_t i = 0; i < series.size(); ++i) {
      RunStats stats;
      auto rows = engine.RunSnapshot(
          series[i], i > 0 ? &series[i - 1] : nullptr, assignment, &stats);
      EXPECT_TRUE(rows.ok()) << rows.status().ToString();
      run.counters.push_back(CountValuedFields(stats));
    }
    for (const auto& entry :
         std::filesystem::directory_iterator(options.work_dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      run.files[entry.path().filename().string()] =
          std::string((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    }
    return run;
  };

  Run serial = run_at(1);
  EXPECT_FALSE(serial.files.empty());
  EXPECT_GT(serial.counters.back().at("pages_identical"), 0);
  for (int threads : {2, 8}) {
    Run parallel = run_at(threads);
    EXPECT_EQ(serial.files, parallel.files) << "threads=" << threads;
    EXPECT_EQ(serial.counters, parallel.counters) << "threads=" << threads;
  }
}

TEST(FastPath, StaleWorkDirDegradesToFullEvaluation) {
  // A result cache from a different corpus generation must not poison the
  // run: digests disagree, so the fast path demotes and results stay
  // correct. (The engine keys everything on the previous snapshot the
  // caller passes, so "stale" here means a prior series in the same dir.)
  ProgramSpec spec = *MakeProgram("chair");
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 10;
  std::vector<Snapshot> series_a = GenerateSeries(profile, 2, 7);
  std::vector<Snapshot> series_b = GenerateSeries(profile, 2, 8);

  std::string dir = FreshDir("stale");
  DelexEngine::Options options;
  options.work_dir = dir;
  DelexEngine engine(spec.plan, options);
  ASSERT_TRUE(engine.Init().ok());
  MatcherAssignment assignment =
      MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kST);
  RunStats stats;
  // Warm the dir with series A...
  ASSERT_TRUE(
      engine.RunSnapshot(series_a[0], nullptr, assignment, &stats).ok());
  // ...then feed series B, claiming A's snapshot as the previous. Pages
  // differ from what the cached generation was captured over.
  auto rows =
      engine.RunSnapshot(series_b[1], &series_a[0], assignment, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();

  // Ground truth: from-scratch evaluation of B[1].
  DelexEngine::Options fresh_options;
  fresh_options.work_dir = FreshDir("stale-fresh");
  DelexEngine fresh(spec.plan, fresh_options);
  ASSERT_TRUE(fresh.Init().ok());
  RunStats fresh_stats;
  auto expected =
      fresh.RunSnapshot(series_b[1], nullptr, assignment, &fresh_stats);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(SameResults(Canonicalize(std::move(rows).ValueOrDie()),
                          Canonicalize(std::move(expected).ValueOrDie())));
}

}  // namespace
}  // namespace delex
