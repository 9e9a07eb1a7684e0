#ifndef DELEX_DELEX_TRIAL_MATCH_H_
#define DELEX_DELEX_TRIAL_MATCH_H_

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "common/span.h"
#include "delex/ie_unit.h"
#include "delex/run_stats.h"
#include "matcher/matcher.h"

namespace delex {

/// Old input regions a real matcher tries per new input region when no old
/// region has the same bytes (ŝ of the cost model). One constant for the
/// engine, its trials and the optimizer's sampler: trial pricing is right
/// only while they all match the same candidates.
inline constexpr int kMaxMatchCandidates = 2;

/// \brief The old regions a real matcher (UD or ST) tries for a unit's
/// `ordinal`-th new input region, among its `num_old` old ones: the one at
/// the same ordinal, then alternately the previous and the next, until
/// kMaxMatchCandidates are found or `num_old` offsets are tried. The
/// engine's candidate policy, so also the trials'.
std::vector<size_t> MatchCandidates(size_t ordinal, size_t num_old);

/// \brief Trial-matches one new input region `region` of `p_content` (its
/// unit's `ordinal`-th) as the engine would under `kind`, and counts the
/// outcome into `*tally`. The one trial routine: the engine runs it on its
/// trial pages for the matchers a plan did not run, and the optimizer's
/// sampler for every kind.
///
/// An `exact` region (the caller found an old region with the same bytes)
/// copies whole with no matcher call, under every kind. Otherwise UD and
/// ST match against the MatchCandidates of `q_regions` (the unit's old
/// regions in `q_content`), DN finds nothing, and DeriveRegionsTagged
/// under the unit's (α, β), with its blackbox's tiles when a segment was
/// found, gives the leftover chars and copy regions. Matching, tiling and
/// derivation are timed into tally->us. Nothing is touched but `*tally`:
/// the matchers run with no MatchContext, so a trial records into no
/// match cache (RU's least of all).
void TrialMatch(std::string_view p_content, const TextSpan& region,
                size_t ordinal, std::string_view q_content,
                std::span<const TextSpan> q_regions, bool exact,
                MatcherKind kind, const IEUnit& unit, MatchTally* tally);

}  // namespace delex

#endif  // DELEX_DELEX_TRIAL_MATCH_H_
