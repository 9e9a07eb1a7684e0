// Harness: structure-aware matcher + region-derivation fuzzing.
//
// Builds an (old page, new page) pair the way real corpora evolve — a
// token-soup old page plus an edit script applied to it — instead of
// feeding matchers raw byte noise (which would almost never produce a
// match, leaving the interesting paths cold). Every matcher output is
// then pushed through the paranoid checkers, which DELEX_CHECK-abort on
// violation: segments must be equal-length, in-bounds, byte-identical;
// derived copy interiors and extraction regions must be monotone,
// disjoint, and contained — the invariants Theorem 1's proof leans on.
// Each segment set is derived twice: by the α + β rule, and by the tile
// rule over a sentence splitter's tiles of the new region.

#include <cstdint>
#include <string>
#include <vector>

#include "common/span.h"
#include "delex/paranoid.h"
#include "delex/region_derivation.h"
#include "extract/segment_extractor.h"
#include "fuzz/fuzz_util.h"
#include "matcher/matcher.h"

using delex::DeriveRegionsTagged;
using delex::GetMatcher;
using delex::MatchContext;
using delex::Matcher;
using delex::MatcherKind;
using delex::MatchSegment;
using delex::RegionDerivation;
using delex::TaggedSegment;
using delex::TextSpan;

namespace {

// A small token alphabet keeps repeated substrings (and thus matches)
// likely while the cursor still controls every structural choice.
constexpr const char* kTokens[] = {
    "alpha ", "beta ",    "gamma ", "delta-",  "epsilon. ", "zeta\n",
    "eta ",   "theta, ",  "iota ",  "kappa ",  "lambda ",   "mu42 ",
};
constexpr size_t kNumTokens = sizeof(kTokens) / sizeof(kTokens[0]);

std::string BuildOldPage(delex::fuzz::FuzzCursor* cursor) {
  const int64_t tokens = cursor->Int(1, 192);
  std::string text;
  for (int64_t i = 0; i < tokens; ++i) {
    text += kTokens[static_cast<size_t>(cursor->Byte()) % kNumTokens];
  }
  return text;
}

/// Applies a cursor-driven edit script: splice, delete, duplicate-block,
/// and raw-byte insert operations over the old text.
std::string ApplyEdits(const std::string& old_text,
                       delex::fuzz::FuzzCursor* cursor) {
  std::string text = old_text;
  const int64_t edits = cursor->Int(0, 8);
  for (int64_t e = 0; e < edits && !text.empty(); ++e) {
    const size_t at = static_cast<size_t>(
        cursor->Int(0, static_cast<int64_t>(text.size())));
    switch (cursor->Byte() % 4) {
      case 0:  // insert a token run
        text.insert(at, kTokens[static_cast<size_t>(cursor->Byte()) %
                                kNumTokens]);
        break;
      case 1:  // delete a run
        text.erase(at, static_cast<size_t>(cursor->Int(1, 24)));
        break;
      case 2: {  // relocate a block (what ST finds and UD cannot)
        const size_t len = static_cast<size_t>(cursor->Int(1, 48));
        const std::string block = text.substr(at, len);
        text.erase(at, len);
        const size_t to = static_cast<size_t>(
            cursor->Int(0, static_cast<int64_t>(text.size())));
        text.insert(to, block);
        break;
      }
      case 3:  // raw byte noise
        text.insert(at, cursor->Bytes(static_cast<size_t>(cursor->Int(1, 8))));
        break;
    }
  }
  return text;
}

/// A sub-span of [0, size) chosen by the cursor (never empty unless the
/// text is).
TextSpan PickRegion(int64_t size, delex::fuzz::FuzzCursor* cursor) {
  if (size <= 0) return TextSpan(0, 0);
  const int64_t start = cursor->Int(0, size - 1);
  const int64_t end = cursor->Int(start + 1, size);
  return TextSpan(start, end);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  delex::fuzz::FuzzCursor cursor(data, size);
  const std::string q_text = BuildOldPage(&cursor);
  const std::string p_text = ApplyEdits(q_text, &cursor);
  const TextSpan q_region =
      PickRegion(static_cast<int64_t>(q_text.size()), &cursor);
  const TextSpan p_region =
      PickRegion(static_cast<int64_t>(p_text.size()), &cursor);
  const int64_t alpha = cursor.Int(0, 12);
  const int64_t beta = cursor.Int(0, 12);
  static const delex::SegmentExtractor kSentences(
      "sentences", {.delimiter = ". ", .work_per_char = 0});
  const std::vector<TextSpan> tiles = kSentences.Tiles(
      std::string_view(p_text).substr(static_cast<size_t>(p_region.start),
                                      static_cast<size_t>(p_region.length())),
      p_region.start);

  MatchContext ctx;
  // RU last: it answers from what UD/ST recorded into the context, so the
  // recycled-segment path sees real entries.
  const MatcherKind kinds[] = {MatcherKind::kUD, MatcherKind::kST,
                               MatcherKind::kRU};
  for (MatcherKind kind : kinds) {
    const Matcher& matcher = GetMatcher(kind);
    std::vector<MatchSegment> segments =
        matcher.Match(p_text, p_region, q_text, q_region, &ctx);
    delex::paranoid::CheckSegments(p_text, p_region, q_text, q_region,
                                   segments);
    std::vector<TaggedSegment> tagged;
    tagged.reserve(segments.size());
    for (const MatchSegment& seg : segments) {
      tagged.push_back({seg, q_region, /*old_tid=*/0});
    }
    RegionDerivation derivation =
        DeriveRegionsTagged(p_region, tagged, alpha, beta);
    delex::paranoid::CheckDerivation(derivation, p_region);
    RegionDerivation tiled =
        DeriveRegionsTagged(p_region, std::move(tagged), alpha, beta, tiles);
    delex::paranoid::CheckDerivation(tiled, p_region, tiles);
  }
  return 0;
}
