// DELEX_PARANOID deep checkers: real engine runs must sail through every
// phase-boundary invariant check, the differential oracle must find
// serial == parallel == fast-path-off on real series, and each checker
// must actually fire (abort) on a violated invariant — a checker that
// never fires is worse than none, it certifies garbage.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "delex/engine.h"
#include "delex/paranoid.h"
#include "delex/region_derivation.h"
#include "extract/segment_extractor.h"
#include "harness/experiment.h"
#include "harness/programs.h"
#include "matcher/matcher.h"
#include "shard/sharded_engine.h"
#include "storage/reuse_file.h"

namespace delex {
namespace {

// Flip the deep checks on for this whole test binary, before anything can
// latch paranoid::Enabled()'s once-per-process cache. Runtime env beats
// the compile-time default, so this holds in every build mode.
const bool kParanoidEnv = [] {
  setenv("DELEX_PARANOID", "1", /*overwrite=*/1);
  return true;
}();

std::string FreshDir(const std::string& tag) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("delex-paranoid-" + tag)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ParanoidTest, EnvVarEnablesChecks) {
  ASSERT_TRUE(kParanoidEnv);
  EXPECT_TRUE(paranoid::Enabled());
}

// End-to-end: every paranoid hook in the engine (matcher postconditions,
// derivation checks, copied-mention bounds, reuse ordinals, raw-slice
// re-validation) runs on real evolving data without firing.
TEST(ParanoidTest, EngineRunsCleanUnderDeepChecks) {
  ASSERT_TRUE(paranoid::Enabled());
  for (const char* name : {"talk", "blockbuster"}) {
    auto program = MakeProgram(name);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    DatasetProfile profile = program->Profile();
    profile.num_sources = 8;
    std::vector<Snapshot> series = GenerateSeries(profile, 3, /*seed=*/7);

    DelexEngine::Options options;
    options.work_dir = FreshDir(std::string("engine-") + name);
    DelexEngine engine(program->plan, options);
    ASSERT_TRUE(engine.Init().ok());
    const MatcherAssignment st =
        MatcherAssignment::Uniform(engine.NumUnits(), MatcherKind::kST);
    for (size_t i = 0; i < series.size(); ++i) {
      auto rows = engine.RunSnapshot(series[i], i > 0 ? &series[i - 1] : nullptr,
                                     st, nullptr);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    }
  }
}

TEST(ParanoidTest, DifferentialOracleAcceptsRealSeries) {
  auto program = MakeProgram("talk");
  ASSERT_TRUE(program.ok());
  DatasetProfile profile = DatasetProfile::DBLife();
  profile.num_sources = 6;
  std::vector<Snapshot> series = GenerateSeries(profile, 2, /*seed=*/21);
  // The oracle builds its own engines; it only needs a full-width
  // assignment, so probe the unit count once up front.
  DelexEngine::Options probe_options;
  probe_options.work_dir = FreshDir("oracle-probe");
  DelexEngine probe(program->plan, probe_options);
  ASSERT_TRUE(probe.Init().ok());
  const MatcherAssignment full =
      MatcherAssignment::Uniform(probe.NumUnits(), MatcherKind::kST);

  Status verdict = paranoid::DifferentialOracle(
      program->plan, series, full, FreshDir("oracle"));
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

TEST(ParanoidTest, ShardedDifferentialOracleAcceptsRealSeries) {
  // The sharded==unsharded leg: 2- and 3-shard runs on a shared pool must
  // be byte-identical (exact row order, not set-equal) to the serial
  // unsharded engine across the series.
  auto program = MakeProgram("chair");
  ASSERT_TRUE(program.ok());
  DatasetProfile profile = DatasetProfile::DBLife();
  profile.num_sources = 8;
  std::vector<Snapshot> series = GenerateSeries(profile, 3, /*seed=*/33);
  DelexEngine::Options probe_options;
  probe_options.work_dir = FreshDir("shard-oracle-probe");
  DelexEngine probe(program->plan, probe_options);
  ASSERT_TRUE(probe.Init().ok());
  const MatcherAssignment full =
      MatcherAssignment::Uniform(probe.NumUnits(), MatcherKind::kST);

  Status verdict = shard::ShardedDifferentialOracle(
      program->plan, series, full, FreshDir("shard-oracle"));
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

TEST(ParanoidTest, CheckSegmentsAcceptsMatcherOutput) {
  // Multi-line (UD diffs whole lines) and with long common runs (ST only
  // reports common substrings >= its minimum match length).
  const std::string q =
      "alpha beta gamma delta epsilon zeta eta theta iota kappa\n"
      "serge abiteboul gives a talk at stanford on friday afternoon\n"
      "nu xi omicron pi rho sigma tau upsilon phi chi psi omega\n";
  std::string p = q;
  p.insert(q.find("serge"), "INSERTED SENTENCE GOES HERE\n");
  const TextSpan p_region(0, static_cast<int64_t>(p.size()));
  const TextSpan q_region(0, static_cast<int64_t>(q.size()));
  for (MatcherKind kind : {MatcherKind::kUD, MatcherKind::kST}) {
    std::vector<MatchSegment> segments =
        GetMatcher(kind).Match(p, p_region, q, q_region, nullptr);
    ASSERT_FALSE(segments.empty());
    paranoid::CheckSegments(p, p_region, q, q_region, segments);  // no abort
  }
}

TEST(ParanoidDeathTest, CheckSegmentsFiresOnMismatchedBytes) {
  const std::string p = "aaaa bbbb";
  const std::string q = "cccc dddd";
  std::vector<MatchSegment> lie = {MatchSegment(TextSpan(0, 4), TextSpan(0, 4))};
  EXPECT_DEATH(paranoid::CheckSegments(p, TextSpan(0, 9), q, TextSpan(0, 9),
                                       lie),
               "segment bytes differ");
}

TEST(ParanoidDeathTest, CheckSegmentsFiresOnEscapedSegment) {
  const std::string p = "aaaa bbbb";
  const std::string q = "aaaa bbbb";
  std::vector<MatchSegment> out_of_region = {
      MatchSegment(TextSpan(5, 9), TextSpan(5, 9))};
  EXPECT_DEATH(paranoid::CheckSegments(p, TextSpan(0, 4), q, TextSpan(0, 9),
                                       out_of_region),
               "escapes p region");
}

TEST(ParanoidTest, CheckDerivationAcceptsDerivedRegions) {
  const std::string q =
      "one two three four five six seven eight nine ten eleven twelve\n"
      "thirteen fourteen fifteen sixteen seventeen eighteen nineteen\n"
      "twentyone twentytwo twentythree twentyfour twentyfive twentysix\n";
  std::string p = q;
  p.erase(8, 6);  // drop "three "
  const TextSpan p_region(0, static_cast<int64_t>(p.size()));
  const TextSpan q_region(0, static_cast<int64_t>(q.size()));
  std::vector<MatchSegment> segments =
      GetMatcher(MatcherKind::kST).Match(p, p_region, q, q_region, nullptr);
  std::vector<TaggedSegment> tagged;
  for (const MatchSegment& seg : segments) tagged.push_back({seg, q_region, 0});
  RegionDerivation derivation =
      DeriveRegionsTagged(p_region, std::move(tagged), /*alpha=*/4, /*beta=*/2);
  paranoid::CheckDerivation(derivation, p_region);  // no abort
}

TEST(ParanoidTest, CheckDerivationAcceptsTiledRegions) {
  const std::string q =
      "one two three.\n\nfour five six.\n\nseven eight nine.\n\nten.";
  std::string p = q;
  p.replace(p.find("five"), 4, "FIVE");
  const TextSpan p_region(0, static_cast<int64_t>(p.size()));
  const TextSpan q_region(0, static_cast<int64_t>(q.size()));
  SegmentOptions options;
  options.work_per_char = 0;
  SegmentExtractor paragraphs("p", options);
  std::vector<TextSpan> tiles = paragraphs.Tiles(p, 0);
  // The bytes around the edit match in place.
  const int64_t edit = static_cast<int64_t>(p.find("FIVE"));
  std::vector<TaggedSegment> tagged = {
      {MatchSegment(TextSpan(0, edit), TextSpan(0, edit)), q_region, 0},
      {MatchSegment(TextSpan(edit + 4, p_region.end),
                    TextSpan(edit + 4, q_region.end)),
       q_region, 0}};
  RegionDerivation derivation = DeriveRegionsTagged(
      p_region, std::move(tagged), paragraphs.Scope(),
      paragraphs.ContextWidth(), tiles);
  // Only the edited paragraph is re-extracted.
  EXPECT_EQ(derivation.extraction_regions.spans(),
            (std::vector<TextSpan>{tiles[1]}));
  paranoid::CheckDerivation(derivation, p_region, tiles);  // no abort
}

TEST(ParanoidDeathTest, CheckDerivationFiresOnRunEndingMidTile) {
  RegionDerivation bogus;
  bogus.extraction_regions = IntervalSet({TextSpan(10, 25)});
  const std::vector<TextSpan> tiles = {{0, 10}, {10, 20}, {20, 30}};
  EXPECT_DEATH(paranoid::CheckDerivation(bogus, TextSpan(0, 30), tiles),
               "ends mid-tile");
}

TEST(ParanoidDeathTest, CheckDerivationFiresOnOverlappingInteriors) {
  RegionDerivation bogus;
  CopyRegion a;
  a.p_interior = TextSpan(0, 10);
  a.q_interior = TextSpan(0, 10);
  CopyRegion b;
  b.p_interior = TextSpan(5, 15);  // overlaps a
  b.q_interior = TextSpan(5, 15);
  bogus.copy_regions = {a, b};
  EXPECT_DEATH(paranoid::CheckDerivation(bogus, TextSpan(0, 20)),
               "overlap or regress");
}

TEST(ParanoidDeathTest, CheckCopiedMentionFiresOnEscapedEnvelope) {
  CopyRegion copy;
  copy.p_interior = TextSpan(10, 20);
  copy.q_interior = TextSpan(10, 20);
  Tuple relocated;
  relocated.push_back(TextSpan(18, 25));  // pokes past the interior
  EXPECT_DEATH(paranoid::CheckCopiedMention(copy, relocated, TextSpan(0, 30)),
               "escapes its safe interior");
}

TEST(ParanoidTest, CheckPageGroupOrdinalsAcceptsDecodedGroups) {
  std::vector<InputTupleRec> inputs(2);
  inputs[0].tid = 0;
  inputs[0].did = 5;
  inputs[1].tid = 1;
  inputs[1].did = 5;
  std::vector<OutputTupleRec> outputs(1);
  outputs[0].itid = 1;
  outputs[0].did = 5;
  paranoid::CheckPageGroupOrdinals(5, inputs, outputs);  // no abort
}

TEST(ParanoidDeathTest, CheckPageGroupOrdinalsFiresOnOrphanedOutput) {
  std::vector<InputTupleRec> inputs(1);
  inputs[0].tid = 0;
  inputs[0].did = 5;
  std::vector<OutputTupleRec> outputs(1);
  outputs[0].itid = 3;  // no such input
  outputs[0].did = 5;
  EXPECT_DEATH(paranoid::CheckPageGroupOrdinals(5, inputs, outputs),
               "names no input");
}

TEST(ParanoidDeathTest, CheckRawSliceFiresOnUndecodableBytes) {
  RawPageSlice garbage;
  garbage.in_bytes = "\x08\x00\x00\x00\x00\x00\x00\x00nonsense";
  garbage.n_inputs = 1;
  EXPECT_DEATH(paranoid::CheckRawSlice(garbage), "raw slice");
}

}  // namespace
}  // namespace delex
