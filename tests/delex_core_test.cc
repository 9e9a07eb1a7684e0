// Tests for the Delex core internals: IE-unit identification with the
// σ/π folding rules (§4), IE-chain partitioning (Definition 6), region
// derivation under (α, β) (§5.3), and the four matchers (§5.4).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "delex/ie_unit.h"
#include "delex/region_derivation.h"
#include "harness/programs.h"
#include "matcher/matcher.h"
#include "xlog/parser.h"
#include "xlog/translate.h"

namespace delex {
namespace {

// ---------------------------------------------------------------------------
// IE-unit identification

TEST(IEUnits, SigmaOnBlackboxOutputFoldsSigmaOnInputDoesNot) {
  // blockbuster: containsStr(para, "grossed") reads the paragraph
  // blackbox's own output -> folds into the paragraph unit. play:
  // within(actor, movie, 150) reads actor (input to the movie unit) ->
  // must NOT fold into the movie unit.
  ProgramSpec blockbuster = *MakeProgram("blockbuster");
  auto analysis = AnalyzeUnits(blockbuster.plan);
  ASSERT_TRUE(analysis.ok());
  ASSERT_EQ(analysis->units.size(), 2u);
  // The paragraph unit's chain includes the containsStr σ.
  const IEUnit& para_unit = analysis->units[0];
  bool folded_sigma = false;
  for (const auto& node : para_unit.chain) {
    folded_sigma |= node->kind == xlog::PlanKind::kSelect;
  }
  EXPECT_TRUE(folded_sigma);

  ProgramSpec play = *MakeProgram("play");
  auto play_analysis = AnalyzeUnits(play.plan);
  ASSERT_TRUE(play_analysis.ok());
  ASSERT_EQ(play_analysis->units.size(), 4u);
  const IEUnit& movie_unit = play_analysis->units.back();
  for (const auto& node : movie_unit.chain) {
    EXPECT_NE(node->kind, xlog::PlanKind::kSelect)
        << "σ reading a unit-input column must stay outside the unit";
  }
}

TEST(IEUnits, AlphaBetaTransferWholesaleFromBlackbox) {
  ProgramSpec spec = *MakeProgram("play");
  auto analysis = AnalyzeUnits(spec.plan);
  ASSERT_TRUE(analysis.ok());
  for (const IEUnit& unit : analysis->units) {
    EXPECT_EQ(unit.alpha, unit.ie_node->extractor->Scope());
    EXPECT_EQ(unit.beta, unit.ie_node->extractor->ContextWidth());
  }
}

TEST(IEUnits, UnitCountsMatchProgramStructure) {
  // (program, expected units in the translated tree)
  const std::vector<std::pair<std::string, size_t>> expected = {
      {"talk", 1}, {"chair", 3},  {"advise", 5},
      {"blockbuster", 2}, {"play", 4},
      // award duplicates the awardsent subtree across the join's branches.
      {"award", 7},
      // infobox runs a second segmenter pass for the roles chain.
      {"infobox", 6}};
  for (const auto& [name, units] : expected) {
    ProgramSpec spec = *MakeProgram(name);
    auto analysis = AnalyzeUnits(spec.plan);
    ASSERT_TRUE(analysis.ok());
    EXPECT_EQ(analysis->units.size(), units) << name;
  }
}

TEST(IEUnits, NoFoldModeLeavesBareBlackboxes) {
  ProgramSpec spec = *MakeProgram("blockbuster");
  auto analysis = AnalyzeUnits(spec.plan, /*fold_operators=*/false);
  ASSERT_TRUE(analysis.ok());
  for (const IEUnit& unit : analysis->units) {
    EXPECT_EQ(unit.chain.size(), 1u);
    EXPECT_EQ(unit.top, unit.ie_node);
  }
}

TEST(IEChains, LinearProgramFormsOneChainPlusBranch) {
  ProgramSpec spec = *MakeProgram("play");
  auto analysis = AnalyzeUnits(spec.plan);
  ASSERT_TRUE(analysis.ok());
  auto chains = PartitionChains(spec.plan, *analysis);
  // paragraphs <- sentences <- {actor, movie}: one chain takes three units,
  // the other unit forms its own chain.
  ASSERT_EQ(chains.size(), 2u);
  size_t total = 0;
  for (const IEChain& chain : chains) total += chain.units.size();
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(std::max(chains[0].units.size(), chains[1].units.size()), 3u);
}

TEST(IEChains, EveryUnitInExactlyOneChain) {
  for (const std::string& name : AllProgramNames()) {
    ProgramSpec spec = *MakeProgram(name);
    auto analysis = AnalyzeUnits(spec.plan);
    ASSERT_TRUE(analysis.ok());
    auto chains = PartitionChains(spec.plan, *analysis);
    std::vector<int> seen(analysis->units.size(), 0);
    for (const IEChain& chain : chains) {
      for (int u : chain.units) ++seen[static_cast<size_t>(u)];
    }
    for (size_t u = 0; u < seen.size(); ++u) {
      EXPECT_EQ(seen[u], 1) << name << " unit " << u;
    }
  }
}

// ---------------------------------------------------------------------------
// Region derivation

TEST(RegionDerivation, NoSegmentsMeansFullExtraction) {
  RegionDerivation d =
      DeriveRegions(TextSpan(0, 100), TextSpan(0, 100), {}, 10, 2);
  EXPECT_TRUE(d.copy_regions.empty());
  ASSERT_EQ(d.extraction_regions.spans().size(), 1u);
  EXPECT_EQ(d.extraction_regions.spans()[0], TextSpan(0, 100));
}

TEST(RegionDerivation, FullAlignedMatchCopiesEverything) {
  std::vector<MatchSegment> segments = {
      {TextSpan(0, 100), TextSpan(0, 100)}};
  RegionDerivation d =
      DeriveRegions(TextSpan(0, 100), TextSpan(0, 100), segments, 10, 2);
  ASSERT_EQ(d.copy_regions.size(), 1u);
  // Both edges aligned: no shrink at all.
  EXPECT_EQ(d.copy_regions[0].q_interior, TextSpan(0, 100));
  EXPECT_TRUE(d.extraction_regions.Empty());
}

TEST(RegionDerivation, InteriorShrinksByBetaOnUnalignedSides) {
  // Segment in the middle of both regions: shrink β on both sides.
  std::vector<MatchSegment> segments = {{TextSpan(20, 60), TextSpan(30, 70)}};
  RegionDerivation d =
      DeriveRegions(TextSpan(0, 100), TextSpan(0, 110), segments, 10, 3);
  ASSERT_EQ(d.copy_regions.size(), 1u);
  EXPECT_EQ(d.copy_regions[0].q_interior, TextSpan(33, 67));
  EXPECT_EQ(d.copy_regions[0].p_interior, TextSpan(23, 57));
  EXPECT_EQ(d.copy_regions[0].delta, -10);
}

TEST(RegionDerivation, EdgeAlignedSideKeepsFullWidth) {
  // Segment starts at the start of BOTH regions: left unshrunk.
  std::vector<MatchSegment> segments = {{TextSpan(0, 50), TextSpan(0, 50)}};
  RegionDerivation d =
      DeriveRegions(TextSpan(0, 100), TextSpan(0, 120), segments, 10, 5);
  ASSERT_EQ(d.copy_regions.size(), 1u);
  EXPECT_EQ(d.copy_regions[0].q_interior, TextSpan(0, 45));
}

TEST(RegionDerivation, MisalignedEdgeStillShrinks) {
  // Segment touches p's start but not q's start: treated as unaligned.
  std::vector<MatchSegment> segments = {{TextSpan(0, 50), TextSpan(10, 60)}};
  RegionDerivation d =
      DeriveRegions(TextSpan(0, 100), TextSpan(0, 120), segments, 10, 5);
  ASSERT_EQ(d.copy_regions.size(), 1u);
  EXPECT_EQ(d.copy_regions[0].q_interior, TextSpan(15, 55));
}

TEST(RegionDerivation, ExtractionExpandsComplementByAlphaPlusBeta) {
  std::vector<MatchSegment> segments = {{TextSpan(0, 40), TextSpan(0, 40)},
                                        {TextSpan(60, 100), TextSpan(60, 100)}};
  RegionDerivation d =
      DeriveRegions(TextSpan(0, 100), TextSpan(0, 100), segments, 7, 2);
  // Interiors: [0,38) and [62,100). Complement: [38,62). Expanded by 9:
  // [29,71).
  ASSERT_EQ(d.extraction_regions.spans().size(), 1u);
  EXPECT_EQ(d.extraction_regions.spans()[0], TextSpan(29, 71));
}

TEST(RegionDerivation, TilesRoundResidueToWholeRuns) {
  std::vector<MatchSegment> segments = {{TextSpan(0, 40), TextSpan(0, 40)},
                                        {TextSpan(50, 80), TextSpan(50, 80)},
                                        {TextSpan(85, 100), TextSpan(85, 100)}};
  const std::vector<TextSpan> tiles = {{0, 10},  {10, 30}, {30, 45},
                                       {45, 50}, {50, 70}, {70, 75},
                                       {75, 90}, {90, 100}};
  RegionDerivation untiled =
      DeriveRegions(TextSpan(0, 100), TextSpan(0, 100), segments, 7, 2);
  RegionDerivation tiled =
      DeriveRegions(TextSpan(0, 100), TextSpan(0, 100), segments, 7, 2, tiles);
  // Interiors [0,38), [52,78), [87,100): the residue is [38,52) and
  // [78,87). Tiles [30,45), [45,50) and [50,70) meet the first gap and
  // merge into one run; [75,90) meets the second. [70,75) lies inside an
  // interior, so the runs stay apart.
  EXPECT_EQ(tiled.extraction_regions.spans(),
            (std::vector<TextSpan>{{30, 70}, {75, 90}}));
  // The α + β rule reads [29,61) and [69,96) instead.
  EXPECT_EQ(untiled.extraction_regions.spans(),
            (std::vector<TextSpan>{{29, 61}, {69, 96}}));
  // Tiles change only where extraction runs, never what is copied.
  EXPECT_EQ(tiled.p_safe.spans(), untiled.p_safe.spans());
  ASSERT_EQ(tiled.copy_regions.size(), untiled.copy_regions.size());
  for (size_t i = 0; i < tiled.copy_regions.size(); ++i) {
    EXPECT_EQ(tiled.copy_regions[i].q_interior,
              untiled.copy_regions[i].q_interior);
  }

  // No residue, no run; a residue everywhere is one run over every tile.
  std::vector<MatchSegment> full = {{TextSpan(0, 100), TextSpan(0, 100)}};
  EXPECT_TRUE(DeriveRegions(TextSpan(0, 100), TextSpan(0, 100), full, 7, 2,
                            tiles)
                  .extraction_regions.Empty());
  EXPECT_EQ(DeriveRegions(TextSpan(0, 100), TextSpan(0, 100), {}, 7, 2, tiles)
                .extraction_regions.spans(),
            (std::vector<TextSpan>{{0, 100}}));
}

TEST(RegionDerivation, OverlappingSegmentsMadeDisjoint) {
  std::vector<MatchSegment> segments = {{TextSpan(0, 50), TextSpan(0, 50)},
                                        {TextSpan(40, 90), TextSpan(45, 95)}};
  RegionDerivation d =
      DeriveRegions(TextSpan(0, 100), TextSpan(0, 100), segments, 5, 1);
  // The p sides of the surviving copy regions must not overlap.
  for (size_t i = 0; i < d.copy_regions.size(); ++i) {
    for (size_t j = i + 1; j < d.copy_regions.size(); ++j) {
      EXPECT_FALSE(
          d.copy_regions[i].p_interior.Overlaps(d.copy_regions[j].p_interior));
    }
  }
}

TEST(RegionDerivation, EnvelopeCopyableChecksInterior) {
  CopyRegion copy;
  copy.q_interior = TextSpan(10, 50);
  copy.delta = 5;
  copy.p_interior = TextSpan(15, 55);
  EXPECT_TRUE(EnvelopeCopyable(copy, TextSpan(10, 50), TextSpan(0, 100)));
  EXPECT_TRUE(EnvelopeCopyable(copy, TextSpan(20, 30), TextSpan(0, 100)));
  EXPECT_FALSE(EnvelopeCopyable(copy, TextSpan(9, 30), TextSpan(0, 100)));
  EXPECT_FALSE(EnvelopeCopyable(copy, TextSpan(45, 51), TextSpan(0, 100)));
  // Spanless tuple: needs the interior to cover the whole old region.
  EXPECT_FALSE(EnvelopeCopyable(copy, TextSpan(), TextSpan(0, 100)));
  CopyRegion full;
  full.q_interior = TextSpan(0, 100);
  EXPECT_TRUE(EnvelopeCopyable(full, TextSpan(), TextSpan(0, 100)));
}

/// Property: every position of the new region is either inside a copy-safe
/// interior or inside an extraction region — no mention can fall through.
class DerivationCoverage : public ::testing::TestWithParam<uint64_t> {};

/// Ordered, gapped matches of p [0,500) against q [0,480).
std::vector<MatchSegment> RandomSegments(Rng* rng) {
  std::vector<MatchSegment> segments;
  int64_t p_cursor = rng->UniformRange(0, 60);
  int64_t q_cursor = rng->UniformRange(0, 60);
  while (p_cursor < 480 && q_cursor < 460) {
    int64_t len = rng->UniformRange(5, 80);
    len = std::min({len, 500 - p_cursor, 480 - q_cursor});
    segments.emplace_back(TextSpan(p_cursor, p_cursor + len),
                          TextSpan(q_cursor, q_cursor + len));
    p_cursor += len + rng->UniformRange(0, 50);
    q_cursor += len + rng->UniformRange(0, 50);
  }
  return segments;
}

TEST_P(DerivationCoverage, InteriorsAndExtractionCoverRegion) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    TextSpan p_region(0, 500);
    TextSpan q_region(0, 480);
    std::vector<MatchSegment> segments = RandomSegments(&rng);
    int64_t alpha = rng.UniformRange(2, 40);
    int64_t beta = rng.UniformRange(0, 8);
    RegionDerivation d =
        DeriveRegions(p_region, q_region, segments, alpha, beta);

    // A hypothetical mention anywhere in p_region with length < alpha must
    // be coverable: either its envelope is inside one interior (copied) or
    // it intersects the complement, and then its whole β-window must lie
    // inside one extraction span.
    for (int trial = 0; trial < 40; ++trial) {
      int64_t len = rng.UniformRange(1, alpha - 1);
      int64_t start = rng.UniformRange(0, 500 - len);
      TextSpan mention(start, start + len);
      bool copy_safe = d.p_safe.ContainsWithinOne(mention);
      if (copy_safe) continue;
      TextSpan window = mention.Expand(beta, p_region);
      EXPECT_TRUE(d.extraction_regions.ContainsWithinOne(window))
          << "mention " << mention.ToString() << " (alpha " << alpha
          << ", beta " << beta << ") neither copyable nor extractable";
    }
  }
}

/// Property, tiled: every extraction region starts and ends on a tile
/// boundary, contains every tile that meets the residue and no tile that
/// does not — so a mention inside one tile is either copy-safe or inside
/// an extraction region.
TEST_P(DerivationCoverage, TiledRunsCoverEveryTileMeetingTheResidue) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    TextSpan p_region(0, 500);
    TextSpan q_region(0, 480);
    std::vector<MatchSegment> segments = RandomSegments(&rng);
    std::vector<TextSpan> tiles;
    std::set<int64_t> boundaries = {0};
    for (int64_t start = 0; start < 500;) {
      const int64_t end =
          std::min<int64_t>(500, start + rng.UniformRange(1, 60));
      tiles.emplace_back(start, end);
      boundaries.insert(end);
      start = end;
    }
    const int64_t alpha = rng.UniformRange(2, 40);
    const int64_t beta = rng.UniformRange(0, 8);
    RegionDerivation d =
        DeriveRegions(p_region, q_region, segments, alpha, beta, tiles);

    for (const TextSpan& sub : d.extraction_regions.spans()) {
      EXPECT_TRUE(boundaries.contains(sub.start)) << sub;
      EXPECT_TRUE(boundaries.contains(sub.end)) << sub;
    }
    const IntervalSet residue = d.p_safe.ComplementWithin(p_region);
    for (const TextSpan& tile : tiles) {
      bool meets = false;
      for (const TextSpan& gap : residue.spans()) meets |= gap.Overlaps(tile);
      EXPECT_EQ(d.extraction_regions.ContainsWithinOne(tile), meets)
          << "tile " << tile << (meets ? " meets" : " misses")
          << " the residue";
      // A hypothetical mention inside this tile: copied or re-extracted.
      const int64_t start = rng.UniformRange(tile.start, tile.end - 1);
      const TextSpan mention(start, rng.UniformRange(start + 1, tile.end));
      EXPECT_TRUE(d.p_safe.ContainsWithinOne(mention) ||
                  d.extraction_regions.ContainsWithinOne(mention))
          << "mention " << mention << " neither copyable nor extractable";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DerivationCoverage,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// Matchers

TEST(Matchers, DnReturnsNothing) {
  auto segments = GetMatcher(MatcherKind::kDN)
                      .Match("abc", TextSpan(0, 3), "abc", TextSpan(0, 3),
                             nullptr);
  EXPECT_TRUE(segments.empty());
}

TEST(Matchers, UdAndStRecordIntoContext) {
  std::string text = "line a\nline b\nline c\n";
  MatchContext ctx;
  GetMatcher(MatcherKind::kUD)
      .Match(text, TextSpan(0, 21), text, TextSpan(0, 21), &ctx);
  EXPECT_EQ(ctx.entries().size(), 1u);
  GetMatcher(MatcherKind::kST)
      .Match(text, TextSpan(0, 21), text, TextSpan(0, 21), &ctx);
  EXPECT_EQ(ctx.entries().size(), 2u);
}

TEST(Matchers, RuClipsRecordedSegmentsToQuery) {
  MatchContext ctx;
  // Recorded: p[100,200) matches q[300,400).
  ctx.Record(TextSpan(0, 1000), TextSpan(0, 1000),
             {MatchSegment(TextSpan(100, 200), TextSpan(300, 400))});
  auto segments = GetMatcher(MatcherKind::kRU)
                      .Match("", TextSpan(150, 500), "", TextSpan(320, 360),
                             &ctx);
  ASSERT_EQ(segments.size(), 1u);
  // p clip: [150,200) -> q [350,400) -> q clip [350,360) -> p [150,160).
  EXPECT_EQ(segments[0].q, TextSpan(350, 360));
  EXPECT_EQ(segments[0].p, TextSpan(150, 160));
}

TEST(Matchers, RuWithoutContextFindsNothing) {
  auto segments = GetMatcher(MatcherKind::kRU)
                      .Match("x", TextSpan(0, 1), "x", TextSpan(0, 1), nullptr);
  EXPECT_TRUE(segments.empty());
  MatchContext empty;
  segments = GetMatcher(MatcherKind::kRU)
                 .Match("x", TextSpan(0, 1), "x", TextSpan(0, 1), &empty);
  EXPECT_TRUE(segments.empty());
}

TEST(Matchers, KindNamesStable) {
  EXPECT_STREQ(MatcherKindName(MatcherKind::kDN), "DN");
  EXPECT_STREQ(MatcherKindName(MatcherKind::kUD), "UD");
  EXPECT_STREQ(MatcherKindName(MatcherKind::kST), "ST");
  EXPECT_STREQ(MatcherKindName(MatcherKind::kRU), "RU");
}

}  // namespace
}  // namespace delex
