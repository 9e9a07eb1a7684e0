#include "delex/ie_unit.h"

#include <algorithm>

#include "common/logging.h"

namespace delex {

using xlog::PlanKind;
using xlog::PlanNode;
using xlog::PlanNodePtr;

namespace {

/// Parent lookup for every node id.
void BuildParentMap(const PlanNodePtr& node,
                    std::unordered_map<int, PlanNodePtr>* parents) {
  for (const PlanNodePtr& child : node->children) {
    (*parents)[child->id] = node;
    BuildParentMap(child, parents);
  }
}

}  // namespace

Result<UnitAnalysis> AnalyzeUnits(const PlanNodePtr& root,
                                  bool fold_operators) {
  std::unordered_map<int, PlanNodePtr> parents;
  BuildParentMap(root, &parents);

  std::vector<PlanNodePtr> post_order;
  CollectPostOrder(root, &post_order);

  UnitAnalysis analysis;
  for (const PlanNodePtr& node : post_order) {
    if (node->kind != PlanKind::kIE) continue;
    if (node->id < 0) {
      return Status::InvalidArgument("plan ids not assigned (call AssignIds)");
    }

    IEUnit unit;
    unit.ie_node = node;
    unit.input = node->children[0];
    unit.chain.push_back(node);

    // Provenance of the current top's columns: true = produced by the
    // blackbox, false = passed through from the unit's input.
    size_t child_arity = unit.input->schema.size();
    std::vector<bool> from_blackbox(node->schema.size(), false);
    for (size_t i = child_arity; i < node->schema.size(); ++i) {
      from_blackbox[i] = true;
    }

    PlanNodePtr top = node;
    while (fold_operators) {
      auto it = parents.find(top->id);
      if (it == parents.end()) break;
      const PlanNodePtr& parent = it->second;
      if (parent->kind == PlanKind::kSelect) {
        bool foldable = true;
        for (const xlog::PredArg& arg : parent->pred_args) {
          if (arg.IsCol() && !from_blackbox[static_cast<size_t>(arg.col)]) {
            foldable = false;
            break;
          }
        }
        if (!foldable) break;
        top = parent;
        unit.chain.push_back(top);
        // σ does not change the schema or provenance.
      } else if (parent->kind == PlanKind::kProject) {
        std::vector<bool> remapped;
        remapped.reserve(parent->columns.size());
        for (int c : parent->columns) {
          remapped.push_back(from_blackbox[static_cast<size_t>(c)]);
        }
        from_blackbox = std::move(remapped);
        top = parent;
        unit.chain.push_back(top);
      } else {
        break;
      }
    }

    unit.top = top;
    unit.alpha = node->extractor->Scope();
    unit.beta = node->extractor->ContextWidth();
    unit.name = node->extractor->Name() + "#" + std::to_string(node->id);
    analysis.units.push_back(std::move(unit));
  }

  // Bottom-up order by top node id (post-order ids grow upward).
  std::sort(analysis.units.begin(), analysis.units.end(),
            [](const IEUnit& a, const IEUnit& b) {
              return a.top->id < b.top->id;
            });
  for (size_t i = 0; i < analysis.units.size(); ++i) {
    analysis.units[i].index = static_cast<int>(i);
    for (const PlanNodePtr& member : analysis.units[i].chain) {
      analysis.unit_of_member[member->id] = static_cast<int>(i);
    }
  }
  return analysis;
}

namespace {

/// Traces which unit (if any) produced the span flowing into `unit`'s
/// blackbox. Returns -1 when the span originates at the raw document scan.
/// It follows one column down the tree and evaluates nothing, so it is not
/// a second plan walk.
int TraceInputOrigin(const IEUnit& unit, const UnitAnalysis& analysis) {
  PlanNodePtr node = unit.input;
  int col = unit.ie_node->input_col;
  while (node != nullptr) {
    switch (node->kind) {
      case PlanKind::kScan:
        return -1;
      case PlanKind::kSelect:
        node = node->children[0];
        break;
      case PlanKind::kProject:
        col = node->columns[static_cast<size_t>(col)];
        node = node->children[0];
        break;
      case PlanKind::kJoin: {  // delex-lint: allow(plan-walk)
        size_t left_arity = node->children[0]->schema.size();
        if (static_cast<size_t>(col) < left_arity) {
          node = node->children[0];
        } else {
          col = node->right_keep[static_cast<size_t>(col) - left_arity];
          node = node->children[1];
        }
        break;
      }
      case PlanKind::kIE: {
        size_t child_arity = node->children[0]->schema.size();
        if (static_cast<size_t>(col) >= child_arity) {
          auto it = analysis.unit_of_member.find(node->id);
          DELEX_CHECK(it != analysis.unit_of_member.end());
          return it->second;
        }
        node = node->children[0];
        break;
      }
    }
  }
  return -1;
}

}  // namespace

std::vector<IEChain> PartitionChains(const xlog::PlanNodePtr& root,
                                     const UnitAnalysis& analysis) {
  (void)root;
  const size_t n = analysis.units.size();
  std::vector<int> next_lower(n, -1);
  for (size_t i = 0; i < n; ++i) {
    next_lower[i] = TraceInputOrigin(analysis.units[i], analysis);
  }

  std::vector<bool> claimed(n, false);
  std::vector<IEChain> chains;
  // Upper units first: a chain begins at a unit no other unclaimed unit
  // feeds from, and extends downward while the producer is unclaimed.
  for (size_t i = n; i-- > 0;) {
    if (claimed[i]) continue;
    IEChain chain;
    int current = static_cast<int>(i);
    while (current >= 0 && !claimed[static_cast<size_t>(current)]) {
      claimed[static_cast<size_t>(current)] = true;
      chain.units.push_back(current);
      current = next_lower[static_cast<size_t>(current)];
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

}  // namespace delex
