#ifndef DELEX_DELEX_PARANOID_H_
#define DELEX_DELEX_PARANOID_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "common/value.h"
#include "delex/region_derivation.h"
#include "delex/run_stats.h"
#include "storage/reuse_file.h"
#include "storage/snapshot.h"
#include "text/match_segment.h"
#include "xlog/plan.h"

namespace delex {
namespace paranoid {

/// \brief Deep invariant checking at phase boundaries (DELEX_PARANOID).
///
/// Theorem 1 says recycling prior IE results is equivalent to re-running
/// the blackboxes; these checkers assert the intermediate invariants that
/// the proof leans on, at runtime, on real data. They are compiled in
/// unconditionally but run only when enabled — flip the DELEX_PARANOID
/// env var (or build with -DDELEX_PARANOID=ON to change the default) to
/// turn a production binary into its own oracle for one triage run.
///
/// Every Check* function DELEX_CHECK-aborts on violation: a failed
/// invariant here means results are already wrong, and the crash-flush
/// hooks preserve the trace. Checks are *internal*-invariant guards; they
/// never run on untrusted bytes (the storage layer rejects those with a
/// Status first).

/// True when deep checking is enabled for this process. Reads the
/// DELEX_PARANOID env var once ("0"/"" → compile-time default, anything
/// else → on); the compile default is off unless built with
/// -DDELEX_PARANOID=ON.
bool Enabled();

/// Matcher postcondition: every segment has equal-length p/q spans, both
/// lying inside the query regions, with byte-identical content.
void CheckSegments(std::string_view p_content, const TextSpan& p_region,
                   std::string_view q_content, const TextSpan& q_region,
                   const std::vector<MatchSegment>& segments);

/// Region-derivation postcondition: copy interiors and extraction regions
/// lie inside `p_region`; the p-side pieces are monotone and
/// non-overlapping; each copy's p/q interiors agree through its delta.
/// With the blackbox's `tiles` (a splitter unit), also: the tiles partition
/// `p_region`, every extraction region starts and ends on a tile boundary,
/// and every tile that meets the residue p_region \ p_safe lies inside an
/// extraction region.
void CheckDerivation(const RegionDerivation& derivation,
                     const TextSpan& p_region,
                     const std::vector<TextSpan>& tiles = {});

/// Copy-phase postcondition for one relocated mention: the shifted span
/// envelope lies inside the copy's safe p-interior (hence inside the
/// matched region and the new input region).
void CheckCopiedMention(const CopyRegion& copy, const Tuple& relocated,
                        const TextSpan& p_region);

/// Reuse-record decode postcondition: input ordinals are dense and
/// page-local (tid == position, did uniform) and every output's itid
/// names an existing input of the same page.
void CheckPageGroupOrdinals(int64_t did,
                            const std::vector<InputTupleRec>& inputs,
                            const std::vector<OutputTupleRec>& outputs);

/// Raw-passthrough precondition: a slice about to be committed without
/// decode must decode cleanly and match its advertised record counts —
/// the deep re-validation of the zero-decode relocation.
void CheckRawSlice(const RawPageSlice& slice);

/// \brief Differential oracle: runs `series` through four engine
/// configurations — 1 thread (page evaluation inline on the caller), 3
/// threads (a run-local pool), whole-page fast path disabled, and scalar
/// SIMD kernels — in throwaway work dirs under `scratch_dir`, and compares
/// the canonicalized per-snapshot result multisets.
///
/// Returns OK when all three agree on every snapshot; a Corruption status
/// naming the first divergence otherwise. This is a Status (not a check)
/// so tests and CI legs can drive it without a death harness.
Status DifferentialOracle(const xlog::PlanNodePtr& plan,
                          const std::vector<Snapshot>& series,
                          const MatcherAssignment& assignment,
                          const std::string& scratch_dir);

}  // namespace paranoid
}  // namespace delex

#endif  // DELEX_DELEX_PARANOID_H_
