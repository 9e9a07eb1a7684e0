#ifndef DELEX_DELEX_REGION_DERIVATION_H_
#define DELEX_DELEX_REGION_DERIVATION_H_

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "text/interval_set.h"
#include "text/match_segment.h"

namespace delex {

/// \brief One copy opportunity: mentions recorded against `q_interior`
/// (belonging to old input tuple `old_tid`) relocate by `delta` into the
/// new page.
struct CopyRegion {
  TextSpan q_interior;  ///< safe interior, in old-page coordinates
  TextSpan p_interior;  ///< the same interior, in new-page coordinates
  int64_t delta = 0;    ///< p position − q position
  int64_t old_tid = 0;  ///< tid of the old input tuple this match came from
};

/// \brief A matcher result annotated with the old input region it matched
/// against (one new region can be matched against several old regions).
struct TaggedSegment {
  MatchSegment segment;
  TextSpan q_region;
  int64_t old_tid = 0;
};

/// \brief The outcome of matching one new input region under (α, β):
/// where to copy from, and where extraction must still run (§5.3).
struct RegionDerivation {
  std::vector<CopyRegion> copy_regions;

  /// Union of the p-side interiors — a mention whose envelope lies inside
  /// is satisfied by copying, so re-extracted duplicates are suppressed
  /// against this set.
  IntervalSet p_safe;

  /// Maximal sub-regions of the new input region to run the blackbox on:
  /// the residue p_region \ p_safe expanded by α + β, or rounded out to
  /// whole tiles for a blackbox that declares a splitter.
  IntervalSet extraction_regions;
};

/// \brief Derives copy and extraction regions for new region `p_region`
/// from matcher outputs against one or more old regions.
///
/// Safety rule (reconstruction of Cyclex's derivation, §3/§5.3): a mention
/// with envelope e is copyable iff its β-expanded window lies inside a
/// single matched segment; window clipping at a region edge is permitted
/// only where the segment abuts the corresponding edge of *both* regions
/// (so the extractor sees the same "start/end of input" on both sides).
/// Equivalently: e must lie in the segment's interior shrunk by β on every
/// non-edge-aligned side. Interiors are additionally shrunk by ≥1 so
/// adjacent interiors never touch — a mention straddling two interiors
/// must then cross uncovered ground, the *residue* p_region \ p_safe, and
/// is guaranteed to be re-extracted.
///
/// Extraction regions, without `tiles`: the residue expanded by α + β. Any
/// non-copyable mention (length < α) has a character in the residue, hence
/// its whole β-window falls inside one expanded residue piece, where
/// from-scratch extraction behaves exactly as on the full region.
///
/// Extraction regions, with `tiles` (the blackbox's splitter,
/// Extractor::Tiles, which must partition p_region): the maximal runs of
/// consecutive tiles that meet the residue. Theorem 1 still holds: a
/// non-copyable mention has a character in the residue and lies inside one
/// tile, so that tile belongs to a run; Extract on the run returns exactly
/// the full-region mentions inside it (split-correctness), so the mention
/// is re-extracted once and nothing spurious is. A run edge is therefore a
/// true edge, and the engine's keep rule clips β-windows to the run.
///
/// Segments are clipped to the regions and made disjoint on the p side;
/// non-equal-length segments are rejected by DELEX_CHECK.
RegionDerivation DeriveRegionsTagged(const TextSpan& p_region,
                                     std::vector<TaggedSegment> segments,
                                     int64_t alpha, int64_t beta,
                                     const std::vector<TextSpan>& tiles = {});

/// \brief Single-old-region convenience wrapper (used by tests).
RegionDerivation DeriveRegions(const TextSpan& p_region,
                               const TextSpan& q_region,
                               const std::vector<MatchSegment>& segments,
                               int64_t alpha, int64_t beta,
                               const std::vector<TextSpan>& tiles = {});

/// \brief True iff the mention envelope `e_q` (old-page coordinates) is
/// safely copyable through `copy`. Tuples without spans (empty envelope)
/// are copyable only when the interior covers the entire old region.
bool EnvelopeCopyable(const CopyRegion& copy, const TextSpan& e_q,
                      const TextSpan& q_region);

}  // namespace delex

#endif  // DELEX_DELEX_REGION_DERIVATION_H_
