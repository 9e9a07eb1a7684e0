#ifndef DELEX_OPTIMIZER_COST_MODEL_H_
#define DELEX_OPTIMIZER_COST_MODEL_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "delex/ie_unit.h"
#include "delex/run_stats.h"

namespace delex {

// kNumMatcherKinds comes from matcher/matcher.h (via run_stats.h).

inline size_t MatcherIndex(MatcherKind kind) {
  return static_cast<size_t>(kind);
}

/// \brief Per-IE-unit statistics feeding the cost model (Figure 7).
///
/// Selectivity statistics (g, h, s) and the matcher CPU weight are kept
/// per matcher kind, because each matcher finds a different amount of
/// overlap at a different price — the entire reason plan choice matters.
struct UnitCostStats {
  double a = 0;  ///< avg input tuples per page (Fig 7a "a")
  double l = 0;  ///< avg region length per input tuple (Fig 7a "l")

  /// µs of blackbox CPU per character (calibrates ŵ_{3,ex}).
  double extract_us_per_char = 0;

  /// µs of matcher CPU per character of region matched (ŵ_{2,mat}).
  std::array<double, kNumMatcherKinds> match_us_per_char = {};

  /// ĝ: fraction of a matched region still needing extraction.
  std::array<double, kNumMatcherKinds> g = {};

  /// ĥ: copy regions generated per matched input region.
  std::array<double, kNumMatcherKinds> h = {};

  /// ŝ: matcher invocations per input region.
  std::array<double, kNumMatcherKinds> s = {};

  /// Estimated reuse-file sizes in blocks (Fig 7a "b" and "c").
  double b_blocks = 0;
  double c_blocks = 0;
};

/// \brief Snapshot-level statistics plus calibrated weights.
///
/// The snapshot-level fields count only the pages the engine evaluates:
/// a page byte-identical to its previous version is relocated by the
/// fast path at the same cost under every plan, so it is left out of
/// every price (PairStats).
struct CostModelStats {
  double f = 0;         ///< fraction of evaluated pages with a previous version
  double m = 0;         ///< evaluated pages in the incoming snapshot
  double d_blocks = 0;  ///< blocks of those pages' previous versions

  std::vector<UnitCostStats> units;

  // Calibrated weights (µs). The CPU-heavy weights (matching, extraction)
  // are measured live by the statistics collector; the I/O and probe
  // weights below are per-deployment constants.
  double w_io_us_per_block = 2.0;   ///< ŵ_{*,IO}
  double w_find_us = 0.02;          ///< ŵ_{1,find} per tuple comparison
  double w_copy_us = 0.05;          ///< ŵ_{4,copy} per hash-bucket probe
  double v_buckets = 1024;          ///< v: copy-region hash table buckets
};

/// \brief Which chain each unit belongs to and whether its input is the
/// raw page — needed to resolve what an RU assignment actually recycles.
struct ChainStructure {
  std::vector<IEChain> chains;
  std::vector<int> chain_of_unit;     ///< unit index → chain index
  std::vector<int> pos_in_chain;      ///< unit index → position (0 = top)
  std::vector<bool> raw_input;        ///< unit index → input is the document

  static ChainStructure Build(const xlog::PlanNodePtr& root,
                              const UnitAnalysis& analysis);
};

/// \brief Estimated cost (µs) of executing unit `u` under matcher
/// `effective` — formulas (1)–(4) of §6.3.
///
/// `effective` must be a concrete matcher (DN/UD/ST); RU resolution
/// happens in EstimatePlanCost.
double EstimateUnitCost(const CostModelStats& stats, int u,
                        MatcherKind effective, bool ru_priced);

/// \brief Estimated cost (µs) of each unit under a full matcher assignment
/// (index-aligned with `assignment.per_unit`). RU resolution as in
/// EstimatePlanCost. Feeds the run report's predicted-vs-actual columns.
std::vector<double> EstimatePlanUnitCosts(const CostModelStats& stats,
                                          const ChainStructure& chains,
                                          const MatcherAssignment& assignment);

/// \brief Estimated cost (µs) of a full matcher assignment — the sum of
/// EstimatePlanUnitCosts.
///
/// Each RU unit is priced as its resolved source's selectivity at RU's
/// near-zero matching cost; an RU with no ST/UD source below it in its
/// chain (nor an eligible cross-chain bottom unit that runs before it)
/// degrades to DN.
double EstimatePlanCost(const CostModelStats& stats,
                        const ChainStructure& chains,
                        const MatcherAssignment& assignment);

/// \brief How far a prediction was from the run it priced: the mean
/// relative error between `predicted_unit_us` (EstimatePlanUnitCosts) and
/// each unit's measured match + extract + copy + capture µs in `stats` —
/// the run report's cost_drift. Negative when there is no prediction; an
/// error when the prediction and the run disagree on the unit count.
Result<double> CostDrift(const std::vector<double>& predicted_unit_us,
                         const RunStats& stats);

/// \brief Estimated from-scratch cost of one chain (used to order chains
/// in Algorithm 1, step 1).
double EstimateChainScratchCost(const CostModelStats& stats,
                                const IEChain& chain);

}  // namespace delex

#endif  // DELEX_OPTIMIZER_COST_MODEL_H_
