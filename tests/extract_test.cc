// Unit and property tests for the IE blackbox library. The crown jewel is
// the (α, β)-honesty property suite: for every shipped extractor, every
// mention it produces must (a) have an envelope shorter than the declared
// scope α, and (b) survive arbitrary perturbation of the text outside its
// β-context window (Definitions 2-3) — the two promises the entire reuse
// machinery stands on.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>

#include "common/random.h"
#include "corpus/vocab.h"
#include "corpus/generator.h"
#include "extract/crf_extractor.h"
#include "extract/dictionary_extractor.h"
#include "extract/pair_extractor.h"
#include "extract/regex_extractor.h"
#include "extract/registry.h"
#include "extract/repeat_extractor.h"
#include "extract/segment_extractor.h"
#include "extract/sentence_segmenter.h"

namespace delex {
namespace {

// ---------------------------------------------------------------------------
// DictionaryExtractor

TEST(DictionaryExtractor, FindsAllOccurrencesWithWordBoundaries) {
  DictionaryExtractor dict("d", {"Ann Chen", "SIGMOD"});
  std::string text = "Ann Chen chaired SIGMOD. SIGMODx is not SIGMOD.";
  auto out = dict.Extract(text, 0, {});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(std::get<TextSpan>(out[0][0]), TextSpan(0, 8));
  EXPECT_EQ(std::get<TextSpan>(out[1][0]), TextSpan(17, 23));
  // "SIGMODx" rejected; trailing "SIGMOD." accepted (dot is a boundary).
  EXPECT_EQ(std::get<TextSpan>(out[2][0]), TextSpan(40, 46));
}

TEST(DictionaryExtractor, OverlappingTermsAllReported) {
  DictionaryExtractor dict("d", {"data", "database", "base"},
                           {.require_word_boundaries = false,
                            .emit_term = true,
                            .work_per_char = 0});
  auto out = dict.Extract("database", 0, {});
  std::multiset<std::string> terms;
  for (const Tuple& t : out) terms.insert(std::get<std::string>(t[1]));
  EXPECT_EQ(terms, (std::multiset<std::string>{"data", "database", "base"}));
}

TEST(DictionaryExtractor, AbsolutePositionsUseRegionBase) {
  DictionaryExtractor dict("d", {"xyz"});
  auto out = dict.Extract("a xyz b", 1000, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<TextSpan>(out[0][0]), TextSpan(1002, 1005));
}

TEST(DictionaryExtractor, DuplicateTermsDeduplicated) {
  DictionaryExtractor dict("d", {"abc", "abc", "abc"});
  auto out = dict.Extract("abc", 0, {});
  EXPECT_EQ(out.size(), 1u);
}

TEST(DictionaryExtractor, ScopeBoundsLongestTerm) {
  DictionaryExtractor dict("d", {"ab", "abcdef"});
  EXPECT_EQ(dict.Scope(), 7);
  EXPECT_EQ(dict.ContextWidth(), 1);
}

TEST(DictionaryExtractor, EmptyRegionYieldsNothing) {
  DictionaryExtractor dict("d", {"x"});
  EXPECT_TRUE(dict.Extract("", 0, {}).empty());
}

TEST(DictionaryExtractor, StatsAccumulate) {
  DictionaryExtractor dict("d", {"ab"});
  dict.Extract("ab ab", 0, {});
  dict.Extract("zz", 5, {});
  EXPECT_EQ(dict.stats().calls, 2);
  EXPECT_EQ(dict.stats().chars_processed, 7);
  EXPECT_EQ(dict.stats().mentions_emitted, 2);
}

// ---------------------------------------------------------------------------
// RegexExtractor

TEST(RegexExtractor, EmitsOverlappingStartPositions) {
  // Every start position is probed independently (required for honesty).
  RegexOptions opts;
  opts.scope = 10;
  opts.work_per_char = 0;
  RegexExtractor re("r", "aa", opts);
  auto out = re.Extract("aaa", 0, {});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(std::get<TextSpan>(out[0][0]), TextSpan(0, 2));
  EXPECT_EQ(std::get<TextSpan>(out[1][0]), TextSpan(1, 3));
}

TEST(RegexExtractor, ScopeFilterDropsLongMatches) {
  RegexOptions opts;
  opts.scope = 4;
  opts.work_per_char = 0;
  RegexExtractor re("r", "a+", opts);
  auto out = re.Extract("aaaaaaa aaa", 0, {});
  // The long run (len 7 >= 4) is dropped at its head positions but suffix
  // starts under the scope are kept, as is the short run.
  for (const Tuple& t : out) {
    EXPECT_LT(std::get<TextSpan>(t[0]).length(), 4);
  }
}

TEST(RegexExtractor, FirstCharsSkipIsTransparent) {
  RegexOptions with;
  with.scope = 16;
  with.first_chars = "0123456789";
  with.work_per_char = 0;
  RegexOptions without = with;
  without.first_chars.clear();
  RegexExtractor fast("f", R"(\d+ pm)", with);
  RegexExtractor slow("s", R"(\d+ pm)", without);
  std::string text = "meet at 3 pm or 11 pm sharp";
  auto a = fast.Extract(text, 0, {});
  auto b = slow.Extract(text, 0, {});
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::get<TextSpan>(a[i][0]), std::get<TextSpan>(b[i][0]));
  }
}

// ---------------------------------------------------------------------------
// SegmentExtractor

TEST(SegmentExtractor, SplitsOnDelimiter) {
  SegmentOptions opts;
  opts.delimiter = "\n\n";
  opts.work_per_char = 0;
  SegmentExtractor seg("s", opts);
  auto out = seg.Extract("one\n\ntwo\n\nthree", 0, {});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(std::get<TextSpan>(out[0][0]), TextSpan(0, 3));
  EXPECT_EQ(std::get<TextSpan>(out[1][0]), TextSpan(5, 8));
  EXPECT_EQ(std::get<TextSpan>(out[2][0]), TextSpan(10, 15));
}

TEST(SegmentExtractor, OverlongSegmentTruncatedNotChunked) {
  SegmentOptions opts;
  opts.delimiter = "\n\n";
  opts.max_segment_length = 5;
  opts.work_per_char = 0;
  SegmentExtractor seg("s", opts);
  auto out = seg.Extract("abcdefghij\n\nxy", 0, {});
  // The long segment contributes exactly one α-1 chunk; no follow-ups
  // (those would be β-dishonest).
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(std::get<TextSpan>(out[0][0]), TextSpan(0, 4));
  EXPECT_EQ(std::get<TextSpan>(out[1][0]), TextSpan(12, 14));
}

TEST(SegmentExtractor, RequiredPrefixFilters) {
  SegmentOptions opts;
  opts.delimiter = "\n";
  opts.required_prefix = "Talk:";
  opts.work_per_char = 0;
  SegmentExtractor seg("s", opts);
  auto out = seg.Extract("Talk: A\nNews: B\nTalk: C", 0, {});
  ASSERT_EQ(out.size(), 2u);
}

TEST(SegmentExtractor, RequiredPrefixReadsOnlyTheSegment) {
  SegmentOptions opts;
  opts.delimiter = "\n\n";
  opts.required_prefix = "a\n\nb";
  opts.work_per_char = 0;
  SegmentExtractor seg("s", opts);
  // The segment "a" does not start with the prefix; the bytes after its
  // delimiter belong to the next tile and must not decide it.
  EXPECT_TRUE(seg.Extract("a\n\nb", 0, {}).empty());
}

TEST(SegmentExtractor, TilesAreSegmentsWithTheirDelimiters) {
  SegmentOptions opts;
  opts.delimiter = "\n\n";
  opts.work_per_char = 0;
  SegmentExtractor seg("s", opts);
  EXPECT_EQ(seg.Tiles("one\n\n\ntwo\n\n", 100),
            (std::vector<TextSpan>{{100, 105}, {105, 111}}));
  EXPECT_TRUE(seg.Tiles("", 100).empty());
}

/// Split-correctness (Doleschal et al.): the tiles partition the text, and
/// Extract on every run of consecutive tiles returns exactly the
/// whole-text mentions inside that run. The alphabet is dense in delimiter
/// characters, so delimiter runs, segments ≥ α and delimiters at the first
/// and last byte all occur; the test counts them to show they did.
struct SplitCase {
  std::string name;
  std::string delimiter;
  std::string required_prefix;
  std::string delimiter_run;  ///< a repeat the texts must contain
};

class SegmentSplitCorrectness : public ::testing::TestWithParam<SplitCase> {};

std::vector<TextSpan> MentionSpans(const std::vector<Tuple>& tuples) {
  std::vector<TextSpan> spans;
  for (const Tuple& t : tuples) spans.push_back(std::get<TextSpan>(t[0]));
  return spans;
}

TEST_P(SegmentSplitCorrectness, RunsOfTilesExtractTheWholeTextMentions) {
  const SplitCase& test_case = GetParam();
  const std::string& delim = test_case.delimiter;
  SegmentOptions opts;
  opts.delimiter = delim;
  opts.required_prefix = test_case.required_prefix;
  opts.max_segment_length = 8;
  opts.work_per_char = 0;
  SegmentExtractor seg("s", opts);
  const std::string alphabet = "ab\n\n\n. . ";
  const int64_t base = 1000;
  Rng rng(4242);

  int delimiter_runs = 0, overlong = 0, leading = 0, trailing = 0;
  for (int round = 0; round < 400; ++round) {
    std::string text;
    const int64_t len = rng.UniformRange(0, 48);
    for (int64_t i = 0; i < len; ++i) {
      text.push_back(alphabet[rng.Uniform(alphabet.size())]);
    }
    delimiter_runs += text.find(test_case.delimiter_run) != std::string::npos;
    leading += text.starts_with(delim);
    trailing += text.ends_with(delim);

    const std::vector<TextSpan> tiles = seg.Tiles(text, base);
    int64_t cursor = base;
    for (const TextSpan& tile : tiles) {
      ASSERT_EQ(tile.start, cursor)
          << "text " << ::testing::PrintToString(text);
      ASSERT_FALSE(tile.empty());
      cursor = tile.end;
      std::string_view tile_text = std::string_view(text).substr(
          static_cast<size_t>(tile.start - base),
          static_cast<size_t>(tile.length()));
      const int64_t segment_length =
          tile.length() -
          (tile_text.ends_with(delim) ? static_cast<int64_t>(delim.size())
                                      : 0);
      overlong += segment_length >= opts.max_segment_length;
    }
    ASSERT_EQ(cursor, base + static_cast<int64_t>(text.size()));

    const std::vector<TextSpan> whole =
        MentionSpans(seg.Extract(text, base, {}));
    for (size_t i = 0; i < tiles.size(); ++i) {
      for (size_t j = i; j < tiles.size(); ++j) {
        const TextSpan run(tiles[i].start, tiles[j].end);
        std::vector<TextSpan> expected;
        for (const TextSpan& m : whole) {
          if (run.Contains(m)) expected.push_back(m);
        }
        std::string_view run_text = std::string_view(text).substr(
            static_cast<size_t>(run.start - base),
            static_cast<size_t>(run.length()));
        ASSERT_EQ(MentionSpans(seg.Extract(run_text, run.start, {})),
                  expected)
            << "run " << run << " of text "
            << ::testing::PrintToString(text);
      }
    }
  }
  EXPECT_GT(delimiter_runs, 0);
  EXPECT_GT(overlong, 0);
  EXPECT_GT(leading, 0);
  EXPECT_GT(trailing, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Delimiters, SegmentSplitCorrectness,
    ::testing::Values(SplitCase{"paragraphs", "\n\n", "", "\n\n\n\n\n"},
                      SplitCase{"sentences", ". ", "", ". . "},
                      SplitCase{"prefixed_paragraphs", "\n\n", "a", "\n\n\n"}),
    [](const ::testing::TestParamInfo<SplitCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// PairExtractor

TEST(PairExtractor, PairsWithinWindowOnly) {
  auto left = std::make_shared<DictionaryExtractor>(
      "l", std::vector<std::string>{"Ann"},
      DictionaryOptions{.require_word_boundaries = true,
                        .emit_term = false,
                        .work_per_char = 0});
  RegexOptions ropts;
  ropts.scope = 8;
  ropts.work_per_char = 0;
  auto right = std::make_shared<RegexExtractor>("r", R"(\d pm)", ropts);
  PairExtractor pair("p", left, right, /*window=*/20);

  auto out = pair.Extract("Ann meets at 3 pm", 0, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<TextSpan>(out[0][0]), TextSpan(0, 3));
  EXPECT_EQ(std::get<TextSpan>(out[0][1]), TextSpan(13, 17));

  auto far = pair.Extract("Ann sat. Later, much later on, at 3 pm", 0, {});
  EXPECT_TRUE(far.empty());  // envelope 38 >= window 20
}

TEST(PairExtractor, ScopeIsWindow) {
  auto left = std::make_shared<DictionaryExtractor>(
      "l", std::vector<std::string>{"a"});
  auto right = std::make_shared<DictionaryExtractor>(
      "r", std::vector<std::string>{"b"});
  PairExtractor pair("p", left, right, 77);
  EXPECT_EQ(pair.Scope(), 77);
  EXPECT_EQ(pair.OutputArity(), 2);
}

// ---------------------------------------------------------------------------
// SentenceSegmenter

TEST(SentenceSegmenter, SplitsAtRealBoundaries) {
  SentenceSegmenterOptions opts;
  opts.work_per_char = 0;
  SentenceSegmenter seg("s", opts);
  auto out =
      seg.Extract("First sentence. Second one here! A third?", 0, {});
  ASSERT_EQ(out.size(), 3u);
}

TEST(SentenceSegmenter, AbbreviationsAndDecimalsNotBoundaries) {
  SentenceSegmenterOptions opts;
  opts.work_per_char = 0;
  SentenceSegmenter seg("s", opts);
  auto out = seg.Extract("Dr. Chen paid 3.50 dollars. Then left.", 0, {});
  ASSERT_EQ(out.size(), 2u);
  // First sentence spans through "Dr." and "3.50".
  EXPECT_EQ(std::get<TextSpan>(out[0][0]).start, 0);
  EXPECT_EQ(std::get<TextSpan>(out[0][0]).end, 27);
}

TEST(SentenceSegmenter, InitialsNotBoundaries) {
  SentenceSegmenterOptions opts;
  opts.work_per_char = 0;
  SentenceSegmenter seg("s", opts);
  auto out = seg.Extract("F. Chen wrote it. Done.", 0, {});
  ASSERT_EQ(out.size(), 2u);
}

// ---------------------------------------------------------------------------
// CrfExtractor

TEST(CrfExtractor, DecodesDictionaryNamesAsMentions) {
  CrfModel model = CrfModel::Default();
  model.dictionary = {"Alice", "Chen"};
  CrfOptions opts;
  opts.work_per_char = 0;
  CrfExtractor crf("c", model, opts);
  auto out = crf.Extract("the actor Alice Chen appeared often", 0, {});
  ASSERT_EQ(out.size(), 1u);
  TextSpan mention = std::get<TextSpan>(out[0][0]);
  EXPECT_EQ(mention, TextSpan(10, 20));  // "Alice Chen"
}

TEST(CrfExtractor, TriggerBoostsFollowingToken) {
  CrfModel model = CrfModel::Default();
  model.triggers = {"played"};
  CrfOptions opts;
  opts.work_per_char = 0;
  CrfExtractor crf("c", model, opts);
  auto with = crf.Extract("she played Marston yesterday", 0, {});
  ASSERT_EQ(with.size(), 1u);
  EXPECT_EQ(std::get<TextSpan>(with[0][0]), TextSpan(11, 18));
}

TEST(CrfExtractor, IllegalTransitionsNeverDecoded) {
  CrfModel model = CrfModel::Default();
  model.dictionary = {"Alice"};
  CrfOptions opts;
  opts.work_per_char = 0;
  CrfExtractor crf("c", model, opts);
  std::vector<TextSpan> tokens;
  std::vector<int> labels = crf.Decode("lower case words Alice more", &tokens);
  // No I may follow O, and the chain may not start with I.
  ASSERT_FALSE(labels.empty());
  EXPECT_NE(labels.front(), kLabelI);
  for (size_t i = 1; i < labels.size(); ++i) {
    if (labels[i] == kLabelI) EXPECT_NE(labels[i - 1], kLabelO);
  }
}

TEST(CrfExtractor, OverlongRegionDecodesLeadingWindowOnly) {
  CrfModel model = CrfModel::Default();
  model.dictionary = {"Zed"};
  CrfOptions opts;
  opts.max_input_length = 16;
  opts.work_per_char = 0;
  CrfExtractor crf("c", model, opts);
  // "Zed" appears beyond the 15-char window: not extracted.
  auto out = crf.Extract("aaaa bbbb cccc ddd Zed", 0, {});
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// RepeatExtractor

TEST(RepeatExtractor, MultipliesMentionsAndKeepsName) {
  auto inner = std::make_shared<DictionaryExtractor>(
      "inner", std::vector<std::string>{"ab"});
  RepeatExtractor repeat(inner, 3);
  EXPECT_EQ(repeat.Name(), "inner");
  auto out = repeat.Extract("ab", 0, {});
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(repeat.Scope(), inner->Scope());
}

// ---------------------------------------------------------------------------
// Registry

TEST(ExtractorRegistry, RegisterLookupReplace) {
  ExtractorRegistry registry;
  EXPECT_FALSE(registry.Contains("d"));
  EXPECT_TRUE(registry.Lookup("d").status().IsNotFound());
  registry.Register(std::make_shared<DictionaryExtractor>(
      "d", std::vector<std::string>{"x"}));
  ASSERT_TRUE(registry.Contains("d"));
  EXPECT_EQ((*registry.Lookup("d"))->Scope(), 2);
  registry.Register(std::make_shared<DictionaryExtractor>(
      "d", std::vector<std::string>{"xyzw"}));
  EXPECT_EQ((*registry.Lookup("d"))->Scope(), 5);
  EXPECT_EQ(registry.Size(), 1u);
}

// ---------------------------------------------------------------------------
// The honesty property suite (Definitions 2-3).
//
// For each extractor: extract from a generated text, then perturb the text
// OUTSIDE a randomly chosen mention's β-window (splice in / delete /
// replace characters), re-extract, and require the mention to reappear at
// the correspondingly shifted position. Also require every envelope < α.

struct HonestyCase {
  std::string name;
  std::function<ExtractorPtr()> make;
  bool wiki_corpus;
};

class ExtractorHonesty : public ::testing::TestWithParam<HonestyCase> {};

ExtractorPtr MakeHonestDict() {
  DictionaryOptions opts;
  opts.work_per_char = 0;
  return std::make_shared<DictionaryExtractor>(
      "hd", vocab::Researchers(), opts);
}

ExtractorPtr MakeHonestRegex() {
  RegexOptions opts;
  opts.scope = 16;
  opts.context_width = 1;
  opts.require_word_boundaries = true;
  opts.first_chars = "0123456789";
  opts.work_per_char = 0;
  return std::make_shared<RegexExtractor>("hr", R"(\d{1,2}(:\d{2})? ?(am|pm))",
                                          opts);
}

ExtractorPtr MakeHonestSegment() {
  SegmentOptions opts;
  opts.delimiter = "\n\n";
  opts.max_segment_length = 2400;
  opts.work_per_char = 0;
  return std::make_shared<SegmentExtractor>("hs", opts);
}

ExtractorPtr MakeHonestSentences() {
  SentenceSegmenterOptions opts;
  opts.work_per_char = 0;
  return std::make_shared<SentenceSegmenter>("hsent", opts);
}

ExtractorPtr MakeHonestPair() {
  DictionaryOptions dopts;
  dopts.work_per_char = 0;
  RegexOptions ropts;
  ropts.scope = 16;
  ropts.context_width = 1;
  ropts.require_word_boundaries = true;
  ropts.first_chars = "0123456789";
  ropts.work_per_char = 0;
  return std::make_shared<PairExtractor>(
      "hp",
      std::make_shared<DictionaryExtractor>("hpl", vocab::Researchers(), dopts),
      std::make_shared<RegexExtractor>("hpr", R"(\d{1,2}(:\d{2})? ?(am|pm))",
                                       ropts),
      155);
}

ExtractorPtr MakeHonestCrf() {
  CrfModel model = CrfModel::Default();
  for (const std::string& f : vocab::FirstNames()) model.dictionary.insert(f);
  for (const std::string& l : vocab::LastNames()) model.dictionary.insert(l);
  CrfOptions opts;
  opts.max_input_length = 400;
  opts.work_per_char = 0;
  return std::make_shared<CrfExtractor>("hc", model, opts);
}

TEST_P(ExtractorHonesty, ScopeAndContextAreHonest) {
  const HonestyCase& test_case = GetParam();
  ExtractorPtr extractor = test_case.make();
  const int64_t alpha = extractor->Scope();
  const int64_t beta = extractor->ContextWidth();

  DatasetProfile profile = test_case.wiki_corpus
                               ? DatasetProfile::Wikipedia()
                               : DatasetProfile::DBLife();
  CorpusGenerator generator(profile, 77);
  Rng rng(123);

  int verified_mentions = 0;
  for (int round = 0; round < 12; ++round) {
    std::string text = generator.GeneratePageText(&rng);
    std::vector<Tuple> mentions = extractor->Extract(text, 0, {});
    for (const Tuple& m : mentions) {
      TextSpan envelope = SpanEnvelope(m);
      ASSERT_LT(envelope.length(), alpha) << "scope violation";
    }
    if (mentions.empty()) continue;

    // Pick one mention; perturb outside its β-window.
    const Tuple& target = mentions[rng.Uniform(mentions.size())];
    TextSpan envelope = SpanEnvelope(target);
    int64_t window_start = std::max<int64_t>(0, envelope.start - beta);
    int64_t window_end =
        std::min<int64_t>(static_cast<int64_t>(text.size()), envelope.end + beta);

    std::string perturbed = text;
    int64_t delta = 0;  // shift applied to the mention position
    if (window_start > 2 && rng.Chance(0.7)) {
      // Splice random content strictly before the window.
      int64_t pos = rng.UniformRange(0, window_start - 1);
      std::string junk = " spliced " + std::to_string(rng.Next() % 1000) + " ";
      if (rng.Chance(0.5)) {
        perturbed.insert(static_cast<size_t>(pos), junk);
        delta = static_cast<int64_t>(junk.size());
      } else {
        int64_t del = std::min<int64_t>(window_start - pos - 1, 5);
        if (del > 0) {
          perturbed.erase(static_cast<size_t>(pos), static_cast<size_t>(del));
          delta = -del;
        }
      }
    } else if (window_end + 2 < static_cast<int64_t>(text.size())) {
      // Splice strictly after the window (no shift).
      int64_t pos = rng.UniformRange(window_end + 1,
                                     static_cast<int64_t>(text.size()) - 1);
      perturbed.insert(static_cast<size_t>(pos), " tail noise ");
    } else {
      continue;
    }

    std::vector<Tuple> after = extractor->Extract(perturbed, 0, {});
    Tuple expected = target;
    ShiftSpans(&expected, delta);
    bool found = false;
    for (const Tuple& m : after) {
      if (!TupleLess(m, expected) && !TupleLess(expected, m)) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << test_case.name
                       << ": mention at " << envelope.ToString()
                       << " lost after perturbation outside its beta-window "
                          "(delta "
                       << delta << ")";
    ++verified_mentions;
  }
  EXPECT_GT(verified_mentions, 3) << "test exercised too few mentions";
}

INSTANTIATE_TEST_SUITE_P(
    AllExtractors, ExtractorHonesty,
    ::testing::Values(
        HonestyCase{"dictionary", &MakeHonestDict, false},
        HonestyCase{"regex", &MakeHonestRegex, false},
        HonestyCase{"segment", &MakeHonestSegment, false},
        HonestyCase{"sentences", &MakeHonestSentences, true},
        HonestyCase{"pair", &MakeHonestPair, false},
        HonestyCase{"crf", &MakeHonestCrf, true}),
    [](const auto& info) { return info.param.name; });

// Translation invariance: Extract(text, base) == Extract(text, 0) shifted.
class ExtractorTranslation : public ::testing::TestWithParam<HonestyCase> {};

TEST_P(ExtractorTranslation, RegionBaseOnlyShiftsSpans) {
  ExtractorPtr extractor = GetParam().make();
  DatasetProfile profile = GetParam().wiki_corpus
                               ? DatasetProfile::Wikipedia()
                               : DatasetProfile::DBLife();
  CorpusGenerator generator(profile, 5);
  Rng rng(9);
  std::string text = generator.GenerateParagraph(&rng);
  auto at_zero = extractor->Extract(text, 0, {});
  auto at_base = extractor->Extract(text, 5000, {});
  ASSERT_EQ(at_zero.size(), at_base.size());
  for (size_t i = 0; i < at_zero.size(); ++i) {
    Tuple shifted = at_zero[i];
    ShiftSpans(&shifted, 5000);
    EXPECT_FALSE(TupleLess(shifted, at_base[i]) ||
                 TupleLess(at_base[i], shifted));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllExtractors, ExtractorTranslation,
    ::testing::Values(
        HonestyCase{"dictionary", &MakeHonestDict, false},
        HonestyCase{"regex", &MakeHonestRegex, false},
        HonestyCase{"segment", &MakeHonestSegment, false},
        HonestyCase{"sentences", &MakeHonestSentences, true},
        HonestyCase{"pair", &MakeHonestPair, false},
        HonestyCase{"crf", &MakeHonestCrf, true}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace delex
