#include "delex/trial_match.h"

#include "common/stopwatch.h"
#include "delex/region_derivation.h"

namespace delex {

std::vector<size_t> MatchCandidates(size_t ordinal, size_t num_old) {
  std::vector<size_t> candidates;
  const int64_t base = static_cast<int64_t>(ordinal);
  for (int64_t offset = 0;
       static_cast<int>(candidates.size()) < kMaxMatchCandidates &&
       offset < static_cast<int64_t>(num_old);
       ++offset) {
    int64_t idx = base + (offset % 2 == 0 ? 1 : -1) * ((offset + 1) / 2);
    if (offset == 0) idx = base;
    if (idx < 0 || idx >= static_cast<int64_t>(num_old)) continue;
    candidates.push_back(static_cast<size_t>(idx));
  }
  return candidates;
}

void TrialMatch(std::string_view p_content, const TextSpan& region,
                size_t ordinal, std::string_view q_content,
                std::span<const TextSpan> q_regions, bool exact,
                MatcherKind kind, const IEUnit& unit, MatchTally* tally) {
  ++tally->inputs;
  tally->chars += region.length();
  if (exact) {
    ++tally->copy_regions;
    return;
  }
  Stopwatch watch;
  std::vector<TaggedSegment> segments;
  if (kind == MatcherKind::kUD || kind == MatcherKind::kST) {
    for (size_t idx : MatchCandidates(ordinal, q_regions.size())) {
      ++tally->calls;
      for (const MatchSegment& seg :
           GetMatcher(kind).Match(p_content, region, q_content,
                                  q_regions[idx], /*ctx=*/nullptr)) {
        segments.push_back({seg, q_regions[idx], 0});
      }
    }
  }
  std::vector<TextSpan> tiles;
  if (!segments.empty()) {
    tiles = unit.ie_node->extractor->Tiles(
        p_content.substr(static_cast<size_t>(region.start),
                         static_cast<size_t>(region.length())),
        region.start);
  }
  RegionDerivation derivation = DeriveRegionsTagged(
      region, std::move(segments), unit.alpha, unit.beta, tiles);
  tally->leftover_chars += derivation.extraction_regions.TotalLength();
  tally->copy_regions += static_cast<int64_t>(derivation.copy_regions.size());
  tally->us += watch.ElapsedMicros();
}

}  // namespace delex
