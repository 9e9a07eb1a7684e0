#ifndef DELEX_DELEX_IE_UNIT_H_
#define DELEX_DELEX_IE_UNIT_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "xlog/plan.h"

namespace delex {

/// \brief An IE unit (Definition 5): a maximal path of σ/π operators
/// applied to an IE blackbox.
///
/// Reuse is captured and replayed at this granularity. A σ folds into the
/// unit only when its predicate reads nothing but the blackbox's own
/// outputs (and literals): a σ that inspects the unit's *input* columns —
/// e.g. containsStr(paragraph, "grossed") — stays outside, because its
/// verdict can change even when the mention's β-window is unchanged, which
/// would poison captured results. π always folds. ⋈ never folds (it would
/// break the wholesale transfer of (α, β) from the blackbox — see §4).
struct IEUnit {
  /// Dense unit index (0-based, bottom-up document order).
  int index = 0;

  /// The unit's topmost node (whose outputs are the unit's outputs).
  xlog::PlanNodePtr top;

  /// The IE blackbox node at the bottom of the unit.
  xlog::PlanNodePtr ie_node;

  /// ie_node's input subtree.
  xlog::PlanNodePtr input;

  /// Folded operator chain from ie_node (inclusive, first) up to top
  /// (inclusive, last).
  std::vector<xlog::PlanNodePtr> chain;

  /// Scope/context transferred wholesale from the blackbox (§4).
  int64_t alpha = 0;
  int64_t beta = 0;

  std::string name;  ///< "<extractor>#<node id>"
};

/// \brief The unit decomposition of an execution tree.
struct UnitAnalysis {
  std::vector<IEUnit> units;  ///< bottom-up (post-order of unit tops)

  /// Maps any node id covered by a unit (chain member or ie node) to its
  /// unit index.
  std::unordered_map<int, int> unit_of_member;
};

/// \brief Identifies all IE units of `root`. Requires AssignIds to have
/// run on the tree.
///
/// `fold_operators` = false disables σ/π folding, reducing every unit to
/// its bare blackbox — the suboptimal reuse-at-blackbox-level alternative
/// §4 argues against; kept as an ablation knob.
Result<UnitAnalysis> AnalyzeUnits(const xlog::PlanNodePtr& root,
                                  bool fold_operators = true);

/// \brief An IE chain (Definition 6): a maximal sequence of IE units where
/// each extracts from regions produced (possibly through non-unit
/// relational operators) by the next.
struct IEChain {
  /// Unit indexes, top-of-chain first (A_1 ... A_k of Definition 6);
  /// A_k is the bottom unit, nearest the raw document.
  std::vector<int> units;
};

/// \brief Partitions the units of `analysis` into IE chains (unique by
/// Definition 6). `root` must be the same tree passed to AnalyzeUnits.
std::vector<IEChain> PartitionChains(const xlog::PlanNodePtr& root,
                                     const UnitAnalysis& analysis);

}  // namespace delex

#endif  // DELEX_DELEX_IE_UNIT_H_
