// Tests for the suffix automaton (ST's kernel). A brute-force property
// suite checks ScanMaximalMatches against a direct enumeration of locally
// maximal common substrings over tiny and full byte alphabets; a golden
// suite pins SuffixMatch's segments on generated changed-page pairs, so any
// change to which segments ST returns — and with them reuse files, result
// caches and rows — shows here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "corpus/generator.h"
#include "text/suffix_matcher.h"

namespace delex {
namespace {

// ---------------------------------------------------------------------------
// ScanMaximalMatches against brute force

using Triple = std::tuple<int64_t, int64_t, int64_t>;  // query end, text end, length

/// Every (i, j, L) with L = the longest common suffix of query[..i] found
/// in `text`, L >= min_length, the match not extended by query[i + 1], and
/// j the least inclusive end of an occurrence of query[i - L + 1 .. i].
std::vector<Triple> BruteForceMaximalMatches(std::string_view text,
                                             std::string_view query,
                                             int64_t min_length) {
  const int64_t n = static_cast<int64_t>(query.size());
  std::vector<int64_t> longest(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < n; ++i) {
    int64_t len = std::min<int64_t>(i + 1, static_cast<int64_t>(text.size()));
    while (len > 0 &&
           text.find(query.substr(static_cast<size_t>(i - len + 1),
                                  static_cast<size_t>(len))) ==
               std::string_view::npos) {
      --len;
    }
    longest[static_cast<size_t>(i)] = len;
  }
  std::vector<Triple> out;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t len = longest[static_cast<size_t>(i)];
    if (len < min_length) continue;
    if (i + 1 < n && longest[static_cast<size_t>(i + 1)] == len + 1) continue;
    const size_t start = text.find(query.substr(
        static_cast<size_t>(i - len + 1), static_cast<size_t>(len)));
    out.emplace_back(i, static_cast<int64_t>(start) + len - 1, len);
  }
  return out;
}

/// The bytes a case draws from: NUL and 0xFF are always among them.
std::string Alphabet(int size) {
  switch (size) {
    case 1:
      return std::string(1, '\0');
    case 2:
      return std::string("\0\xff", 2);
    case 4:
      return std::string("\0ab\xff", 4);
    default: {
      std::string all(256, '\0');
      for (int b = 0; b < 256; ++b) all[static_cast<size_t>(b)] = static_cast<char>(b);
      return all;
    }
  }
}

std::string RandomText(Rng* rng, const std::string& alphabet, int64_t length) {
  std::string out(static_cast<size_t>(length), '\0');
  for (char& c : out) c = alphabet[rng->Uniform(alphabet.size())];
  return out;
}

/// A query that shares stretches with `text`: random bytes interleaved
/// with copied runs, so large alphabets still produce long matches.
std::string QueryFrom(Rng* rng, const std::string& alphabet,
                      const std::string& text, int64_t length) {
  std::string out;
  while (static_cast<int64_t>(out.size()) < length) {
    const int64_t room = length - static_cast<int64_t>(out.size());
    if (!text.empty() && rng->Chance(0.6)) {
      const int64_t start =
          rng->UniformRange(0, static_cast<int64_t>(text.size()) - 1);
      const int64_t len = std::min<int64_t>(
          room, rng->UniformRange(1, static_cast<int64_t>(text.size()) - start));
      out += text.substr(static_cast<size_t>(start), static_cast<size_t>(len));
    } else {
      out += RandomText(rng, alphabet, std::min<int64_t>(room, rng->UniformRange(1, 8)));
    }
  }
  return out;
}

class ScanMaximalMatchesProperty : public ::testing::TestWithParam<int> {};

TEST_P(ScanMaximalMatchesProperty, EqualsBruteForceEnumeration) {
  const std::string alphabet = Alphabet(GetParam());
  Rng rng(0x5eed0000 + static_cast<uint64_t>(GetParam()));
  const int64_t kMinLengths[] = {1, 2, 3, 5, 8, 24};
  for (int round = 0; round < 60; ++round) {
    const std::string text = RandomText(&rng, alphabet, rng.UniformRange(0, 300));
    const std::string query =
        rng.Chance(0.2) ? RandomText(&rng, alphabet, rng.UniformRange(0, 300))
                        : QueryFrom(&rng, alphabet, text, rng.UniformRange(0, 300));
    const SuffixAutomaton automaton(text);
    ASSERT_LE(automaton.NumStates(), std::max<size_t>(2 * text.size(), 1));
    for (int64_t min_length : kMinLengths) {
      std::vector<Triple> got;
      automaton.ScanMaximalMatches(
          query, min_length, [&](int64_t query_end, int64_t text_end, int64_t len) {
            got.emplace_back(query_end, text_end, len);
          });
      ASSERT_EQ(got, BruteForceMaximalMatches(text, query, min_length))
          << "round " << round << " |text|=" << text.size()
          << " |query|=" << query.size() << " min_length=" << min_length;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Alphabets, ScanMaximalMatchesProperty,
                         ::testing::Values(1, 2, 4, 256));

TEST(SuffixAutomaton, EmptyTextMatchesNothing) {
  const SuffixAutomaton automaton("");
  EXPECT_EQ(automaton.NumStates(), 1u);
  EXPECT_EQ(automaton.LongestCommonSubstring("abc"), 0);
  int sunk = 0;
  automaton.ScanMaximalMatches("abc", 1, [&](int64_t, int64_t, int64_t) { ++sunk; });
  EXPECT_EQ(sunk, 0);
}

TEST(SuffixAutomaton, StateCountMeetsTheTwoNBound) {
  // "abbb...b" reaches the 2n - 1 state bound for n >= 3.
  std::string text(41, 'b');
  text[0] = 'a';
  const SuffixAutomaton automaton(text);
  EXPECT_EQ(automaton.NumStates(), 2 * text.size() - 1);
  EXPECT_EQ(automaton.LongestCommonSubstring(std::string(50, 'b')), 40);
}

// ---------------------------------------------------------------------------
// Golden SuffixMatch segments on generated changed-page pairs

struct GoldenCase {
  const char* name;
  DatasetProfile (*profile)();
  int pages;
  uint64_t seed;
  // Expected over every pair: segments, matched characters, digest.
  int64_t segments;
  int64_t matched;
  uint64_t digest;
};

/// Paragraph stretches of `text` ("\n\n"-separated, delimiters excluded).
std::vector<TextSpan> Paragraphs(std::string_view text) {
  std::vector<TextSpan> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find("\n\n", start);
    if (end == std::string_view::npos) end = text.size();
    if (end > start) {
      out.emplace_back(static_cast<int64_t>(start), static_cast<int64_t>(end));
    }
    start = end + 2;
  }
  return out;
}

void PrintTo(const GoldenCase& golden, std::ostream* os) { *os << golden.name; }

class SuffixMatchGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SuffixMatchGolden, SegmentsMatchRecordedDigest) {
  const GoldenCase& golden = GetParam();
  DatasetProfile profile = golden.profile();
  profile.num_sources = golden.pages;
  profile.identical_fraction = 0.0;  // every surviving page is a changed pair
  CorpusGenerator generator(profile, golden.seed);
  const Snapshot old_snapshot = generator.Initial();
  const Snapshot new_snapshot = generator.Evolve(old_snapshot);

  SuffixMatchOptions short_matches;
  short_matches.min_match_length = 8;
  SuffixMatchOptions few_candidates;  // truncates the candidate list
  few_candidates.max_candidates = 16;
  const SuffixMatchOptions option_sets[] = {SuffixMatchOptions(), short_matches,
                                            few_candidates};

  int64_t pairs = 0;
  int64_t segments = 0;
  int64_t matched = 0;
  std::string record;
  auto match = [&](std::string_view p_page, TextSpan p_region,
                   std::string_view q_page, TextSpan q_region) {
    for (const SuffixMatchOptions& options : option_sets) {
      const std::vector<MatchSegment> out = SuffixMatch(
          p_page.substr(static_cast<size_t>(p_region.start),
                        static_cast<size_t>(p_region.length())),
          p_region.start,
          q_page.substr(static_cast<size_t>(q_region.start),
                        static_cast<size_t>(q_region.length())),
          q_region.start, options);
      for (const MatchSegment& seg : out) {
        record += std::to_string(seg.p.start) + "," + std::to_string(seg.p.end) +
                  "," + std::to_string(seg.q.start) + "," +
                  std::to_string(seg.q.end) + ";";
        matched += seg.p.length();
      }
      record += "|";
      segments += static_cast<int64_t>(out.size());
    }
  };
  for (const Page& page : new_snapshot.pages()) {
    std::optional<size_t> old_index = old_snapshot.FindByUrl(page.url);
    if (!old_index.has_value()) continue;
    const std::string& p = page.content;
    const std::string& q = old_snapshot.pages()[*old_index].content;
    if (p == q) continue;
    ++pairs;
    match(p, TextSpan(0, static_cast<int64_t>(p.size())), q,
          TextSpan(0, static_cast<int64_t>(q.size())));
    const std::vector<TextSpan> p_paragraphs = Paragraphs(p);
    const std::vector<TextSpan> q_paragraphs = Paragraphs(q);
    for (size_t k = 0; k < std::min(p_paragraphs.size(), q_paragraphs.size()); ++k) {
      match(p, p_paragraphs[k], q, q_paragraphs[k]);
    }
  }
  const uint64_t digest = Fnv1a64(record);
  ASSERT_GT(pairs, golden.pages / 2);
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "0x%016" PRIx64, digest);
  EXPECT_EQ(segments, golden.segments) << golden.name;
  EXPECT_EQ(matched, golden.matched) << golden.name;
  EXPECT_EQ(digest, golden.digest) << golden.name << " digest " << digest_hex;
}

// Recorded with the vector-per-state automaton and IntervalSet tiling that
// the flat edge arena replaced.
INSTANTIATE_TEST_SUITE_P(
    Corpora, SuffixMatchGolden,
    ::testing::Values(
        GoldenCase{"DBLife", &DatasetProfile::DBLife, 24, 2411, 5371, 1463097,
                   0xe29a84050f095614ULL},
        GoldenCase{"Wikipedia", &DatasetProfile::Wikipedia, 16, 2412, 5137,
                   576639, 0x412648b24dd3aca3ULL},
        GoldenCase{"Synthetic1M", &DatasetProfile::Synthetic1M, 200, 2413,
                   3821, 651767, 0xeb9eff3252a6198bULL}));

}  // namespace
}  // namespace delex
