#ifndef DELEX_XLOG_PLAN_H_
#define DELEX_XLOG_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "extract/extractor.h"
#include "storage/snapshot.h"
#include "xlog/builtins.h"

namespace delex {
namespace xlog {

/// Node kinds of an execution tree (Figure 2b / Figure 3a of the paper):
/// relational operators mixed with IE blackbox procedures.
enum class PlanKind { kScan, kIE, kSelect, kProject, kJoin };

/// \brief One argument of a σ predicate: either a column of the input
/// tuple or a literal value.
struct PredArg {
  int col = -1;
  Value literal;

  bool IsCol() const { return col >= 0; }
  static PredArg Col(int c) {
    PredArg a;
    a.col = c;
    return a;
  }
  static PredArg Lit(Value v) {
    PredArg a;
    a.literal = std::move(v);
    return a;
  }
};

struct PlanNode;
using PlanNodePtr = std::shared_ptr<PlanNode>;

/// \brief A node of an execution tree.
///
/// One walk, WalkPlan below, evaluates every tree. From-scratch execution,
/// the Delex engine and the optimizer's sampler differ only in the IEHook
/// that evaluates IE nodes, never in plan semantics.
struct PlanNode {
  PlanKind kind = PlanKind::kScan;

  /// Post-order id, assigned by AssignIds; stable across runs and used to
  /// key reuse files and matcher assignments.
  int id = -1;

  /// Output column names (the xlog variables each column binds).
  std::vector<std::string> schema;

  /// kScan: none. kIE/kSelect/kProject: one. kJoin: two.
  std::vector<PlanNodePtr> children;

  // --- kIE ---
  ExtractorPtr extractor;
  int input_col = -1;  ///< column of the child tuple holding the input span

  // --- kSelect ---
  BuiltinPred pred = BuiltinPred::kBefore;
  std::vector<PredArg> pred_args;

  // --- kProject ---
  std::vector<int> columns;  ///< child columns kept, in output order

  // --- kJoin ---
  /// Natural-join equality pairs (left col, right col).
  std::vector<std::pair<int, int>> eq_pairs;
  /// Right columns appended to the output (duplicates of join columns are
  /// dropped).
  std::vector<int> right_keep;

  /// Short human-readable description ("IE[extractPerson]", "σ[within]").
  std::string Label() const;
};

/// \brief Assigns post-order ids to every node. Call once after building.
void AssignIds(const PlanNodePtr& root);

/// \brief Renders the tree with indentation (for docs/tests/examples).
std::string PlanToString(const PlanNode& root);

/// \brief Collects nodes in post-order (children before parents).
void CollectPostOrder(const PlanNodePtr& root, std::vector<PlanNodePtr>* out);

/// \brief Number of IE nodes in the tree.
int CountIENodes(const PlanNode& root);

/// \brief Evaluates σ predicate `node` on `tuple` (resolving PredArgs).
Result<bool> EvalSelect(const PlanNode& node, const Tuple& tuple,
                        std::string_view page_text);

/// \brief One distinct input region of an IE node: the child tuples whose
/// input column holds `region` are `count` in number, the first of them at
/// index `first`.
struct RegionGroup {
  TextSpan region;
  size_t first = 0;
  size_t count = 0;
};

/// \brief What a plan walk does at an IE node.
class IEHook {
 public:
  virtual ~IEHook() = default;

  /// Evaluates IE node `node` of a walk over `page`. `inputs` are the
  /// child's tuples and `groups` their distinct input regions, in order of
  /// first appearance. Sets (*outputs)[g], presized to groups.size(), to
  /// the blackbox tuples of group g's region.
  virtual Status EvalIE(const PlanNode& node, const Page& page,
                        const std::vector<Tuple>& inputs,
                        const std::vector<RegionGroup>& groups,
                        std::vector<std::vector<Tuple>>* outputs) = 0;
};

/// \brief Evaluates the plan rooted at `root` on one page: scan, σ, π and
/// ⋈ here, IE nodes through `hook`. At an IE node the child's tuples are
/// grouped by distinct input region (which must be a span of 32-bit
/// offsets), the hook runs once for all groups, and each group's outputs
/// are appended to every tuple of that group.
Result<std::vector<Tuple>> WalkPlan(const PlanNode& root, const Page& page,
                                    IEHook* hook);

/// \brief From-scratch execution of a plan on a single page: WalkPlan with
/// one Extract call per distinct region (the No-reuse path; also the
/// correctness oracle for Theorem 1 tests).
Result<std::vector<Tuple>> ExecutePlan(const PlanNode& root, const Page& page);

/// \brief From-scratch execution over a whole snapshot; returns per-page
/// results concatenated with a leading did column.
Result<std::vector<Tuple>> ExecutePlanOnSnapshot(const PlanNode& root,
                                                 const Snapshot& snapshot);

}  // namespace xlog
}  // namespace delex

#endif  // DELEX_XLOG_PLAN_H_
