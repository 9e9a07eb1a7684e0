#include "delex/region_derivation.h"

#include <algorithm>

#include "common/logging.h"

namespace delex {

RegionDerivation DeriveRegionsTagged(const TextSpan& p_region,
                                     std::vector<TaggedSegment> segments,
                                     int64_t alpha, int64_t beta,
                                     const std::vector<TextSpan>& tiles) {
  RegionDerivation out;

  // Clip segments to the regions (consistently on both sides), drop
  // empties.
  std::vector<TaggedSegment> clipped;
  clipped.reserve(segments.size());
  for (const TaggedSegment& tagged : segments) {
    const MatchSegment& seg = tagged.segment;
    DELEX_CHECK_EQ(seg.p.length(), seg.q.length());
    TextSpan p_clip = seg.p.Intersect(p_region);
    if (p_clip.empty()) continue;
    TextSpan q_clip = p_clip.Shift(-seg.Delta()).Intersect(tagged.q_region);
    if (q_clip.empty()) continue;
    TaggedSegment kept = tagged;
    kept.segment = MatchSegment(q_clip.Shift(seg.Delta()), q_clip);
    clipped.push_back(kept);
  }

  // Enforce disjointness on the p side: sort by p.start and trim each
  // segment's head to the previous tail (keeping p/q aligned).
  std::sort(clipped.begin(), clipped.end(),
            [](const TaggedSegment& a, const TaggedSegment& b) {
              return a.segment.p.start < b.segment.p.start;
            });
  std::vector<TaggedSegment> disjoint;
  int64_t p_cursor = p_region.start;
  for (TaggedSegment tagged : clipped) {
    MatchSegment& seg = tagged.segment;
    if (seg.p.start < p_cursor) {
      int64_t trim = p_cursor - seg.p.start;
      seg.p.start += trim;
      seg.q.start += trim;
    }
    if (seg.p.empty()) continue;
    p_cursor = seg.p.end;
    disjoint.push_back(std::move(tagged));
  }

  // Interiors: shrink each side by β unless the segment abuts that edge of
  // BOTH regions; always shrink ≥ 1 so interiors never touch.
  const int64_t shrink = std::max<int64_t>(beta, 1);
  std::vector<TextSpan> p_interiors;
  for (const TaggedSegment& tagged : disjoint) {
    const MatchSegment& seg = tagged.segment;
    bool left_aligned = seg.p.start == p_region.start &&
                        seg.q.start == tagged.q_region.start;
    bool right_aligned =
        seg.p.end == p_region.end && seg.q.end == tagged.q_region.end;
    TextSpan q_interior = seg.q;
    if (!left_aligned) q_interior.start += shrink;
    if (!right_aligned) q_interior.end -= shrink;
    if (q_interior.empty()) continue;

    CopyRegion copy;
    copy.q_interior = q_interior;
    copy.delta = seg.Delta();
    copy.p_interior = q_interior.Shift(copy.delta);
    copy.old_tid = tagged.old_tid;
    out.copy_regions.push_back(copy);
    p_interiors.push_back(copy.p_interior);
  }

  out.p_safe = IntervalSet(p_interiors);
  const IntervalSet residue = out.p_safe.ComplementWithin(p_region);
  if (tiles.empty()) {
    out.extraction_regions = residue.Expand(alpha + beta, p_region);
    return out;
  }
  // Keep every tile that meets the residue; IntervalSet merges touching
  // tiles into maximal runs.
  std::vector<TextSpan> kept;
  auto gap = residue.spans().begin();
  const auto gaps_end = residue.spans().end();
  for (const TextSpan& tile : tiles) {
    while (gap != gaps_end && gap->end <= tile.start) ++gap;
    if (gap == gaps_end) break;
    if (gap->Overlaps(tile)) kept.push_back(tile);
  }
  out.extraction_regions = IntervalSet(std::move(kept));
  return out;
}

RegionDerivation DeriveRegions(const TextSpan& p_region,
                               const TextSpan& q_region,
                               const std::vector<MatchSegment>& segments,
                               int64_t alpha, int64_t beta,
                               const std::vector<TextSpan>& tiles) {
  std::vector<TaggedSegment> tagged;
  tagged.reserve(segments.size());
  for (const MatchSegment& seg : segments) {
    tagged.push_back({seg, q_region, /*old_tid=*/0});
  }
  return DeriveRegionsTagged(p_region, std::move(tagged), alpha, beta, tiles);
}

bool EnvelopeCopyable(const CopyRegion& copy, const TextSpan& e_q,
                      const TextSpan& q_region) {
  if (e_q.empty()) {
    // Spanless tuple: only a full-region match preserves everything the
    // blackbox might have looked at.
    return copy.q_interior.Contains(q_region);
  }
  return copy.q_interior.Contains(e_q);
}

}  // namespace delex
