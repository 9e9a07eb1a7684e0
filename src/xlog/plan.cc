#include "xlog/plan.h"

#include <sstream>
#include <unordered_map>

#include "common/logging.h"

namespace delex {
namespace xlog {

std::string PlanNode::Label() const {
  switch (kind) {
    case PlanKind::kScan:
      return "scan[docs]";
    case PlanKind::kIE:
      return "IE[" + extractor->Name() + "]";
    case PlanKind::kSelect:
      return std::string("sigma[") + BuiltinName(pred) + "]";
    case PlanKind::kProject:
      return "pi";
    case PlanKind::kJoin:
      return "join";
  }
  return "?";
}

namespace {

void AssignIdsImpl(const PlanNodePtr& node, int* next) {
  for (const PlanNodePtr& child : node->children) AssignIdsImpl(child, next);
  node->id = (*next)++;
}

void PlanToStringImpl(const PlanNode& node, int depth, std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  *os << node.Label() << " #" << node.id << " (";
  for (size_t i = 0; i < node.schema.size(); ++i) {
    if (i > 0) *os << ", ";
    *os << node.schema[i];
  }
  *os << ")\n";
  for (const PlanNodePtr& child : node.children) {
    PlanToStringImpl(*child, depth + 1, os);
  }
}

}  // namespace

void AssignIds(const PlanNodePtr& root) {
  int next = 0;
  AssignIdsImpl(root, &next);
}

std::string PlanToString(const PlanNode& root) {
  std::ostringstream os;
  PlanToStringImpl(root, 0, &os);
  return os.str();
}

void CollectPostOrder(const PlanNodePtr& root, std::vector<PlanNodePtr>* out) {
  for (const PlanNodePtr& child : root->children) CollectPostOrder(child, out);
  out->push_back(root);
}

int CountIENodes(const PlanNode& root) {
  int count = root.kind == PlanKind::kIE ? 1 : 0;
  for (const PlanNodePtr& child : root.children) count += CountIENodes(*child);
  return count;
}

Result<bool> EvalSelect(const PlanNode& node, const Tuple& tuple,
                        std::string_view page_text) {
  DELEX_CHECK(node.kind == PlanKind::kSelect);
  std::vector<Value> args;
  args.reserve(node.pred_args.size());
  for (const PredArg& arg : node.pred_args) {
    if (arg.IsCol()) {
      DELEX_CHECK_LT(static_cast<size_t>(arg.col), tuple.size());
      args.push_back(tuple[static_cast<size_t>(arg.col)]);
    } else {
      args.push_back(arg.literal);
    }
  }
  return EvalBuiltin(node.pred, args, page_text);
}

namespace {

/// Appends the joined tuples of `left` × `right` to `*out`.
void EvalJoin(const PlanNode& node, const std::vector<Tuple>& left,
              const std::vector<Tuple>& right, std::vector<Tuple>* out) {
  for (const Tuple& l : left) {
    for (const Tuple& r : right) {
      bool match = true;
      for (const auto& [lc, rc] : node.eq_pairs) {
        const Value& lv = l[static_cast<size_t>(lc)];
        const Value& rv = r[static_cast<size_t>(rc)];
        if (ValueLess(lv, rv) || ValueLess(rv, lv)) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      Tuple joined = l;
      for (int rc : node.right_keep) joined.push_back(r[static_cast<size_t>(rc)]);
      out->push_back(std::move(joined));
    }
  }
}

/// Groups `inputs` by distinct input region, in order of first appearance;
/// (*group_of)[i] is input i's group.
Status GroupRegions(const PlanNode& node, const std::vector<Tuple>& inputs,
                    std::vector<RegionGroup>* groups,
                    std::vector<size_t>* group_of) {
  // Span endpoints are offsets into the in-memory page, so they fit 32
  // bits each (guarded below) and (start, end) packs into one 64-bit key.
  std::unordered_map<uint64_t, size_t> group_index;
  group_index.reserve(inputs.size());
  group_of->resize(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Value& v = inputs[i][static_cast<size_t>(node.input_col)];
    if (!std::holds_alternative<TextSpan>(v)) {
      return Status::InvalidArgument("IE input column is not a span");
    }
    const TextSpan region = std::get<TextSpan>(v);
    if (region.start < 0 || region.end < 0 || (region.start >> 32) != 0 ||
        (region.end >> 32) != 0) {
      return Status::InvalidArgument("IE input span exceeds 32-bit offsets");
    }
    const uint64_t key = (static_cast<uint64_t>(region.start) << 32) |
                         static_cast<uint64_t>(region.end);
    auto [it, inserted] = group_index.emplace(key, groups->size());
    if (inserted) groups->push_back({region, i, 0});
    ++(*groups)[it->second].count;
    (*group_of)[i] = it->second;
  }
  return Status::OK();
}

Result<std::vector<Tuple>> WalkNode(const PlanNode& node, const Page& page,
                                    IEHook* hook) {
  switch (node.kind) {
    case PlanKind::kScan: {
      std::vector<Tuple> out;
      out.push_back(
          {Value(TextSpan(0, static_cast<int64_t>(page.content.size())))});
      return out;
    }
    case PlanKind::kIE: {
      DELEX_ASSIGN_OR_RETURN(std::vector<Tuple> input,
                             WalkNode(*node.children[0], page, hook));
      // Child tuples frequently share the same input region (e.g. one
      // paragraph carrying several person mentions); the hook sees each
      // distinct region once, and the walk restores the multiplicity.
      std::vector<RegionGroup> groups;
      std::vector<size_t> group_of;
      DELEX_RETURN_NOT_OK(GroupRegions(node, input, &groups, &group_of));
      std::vector<std::vector<Tuple>> produced(groups.size());
      DELEX_RETURN_NOT_OK(hook->EvalIE(node, page, input, groups, &produced));
      size_t total = 0;
      for (size_t g = 0; g < groups.size(); ++g) {
        total += groups[g].count * produced[g].size();
      }
      std::vector<Tuple> out;
      out.reserve(total);
      for (size_t i = 0; i < input.size(); ++i) {
        for (const Tuple& o : produced[group_of[i]]) {
          Tuple combined;
          combined.reserve(input[i].size() + o.size());
          combined.insert(combined.end(), input[i].begin(), input[i].end());
          combined.insert(combined.end(), o.begin(), o.end());
          out.push_back(std::move(combined));
        }
      }
      return out;
    }
    case PlanKind::kSelect: {
      DELEX_ASSIGN_OR_RETURN(std::vector<Tuple> input,
                             WalkNode(*node.children[0], page, hook));
      std::vector<Tuple> out;
      for (Tuple& t : input) {
        DELEX_ASSIGN_OR_RETURN(bool keep, EvalSelect(node, t, page.content));
        if (keep) out.push_back(std::move(t));
      }
      return out;
    }
    case PlanKind::kProject: {
      DELEX_ASSIGN_OR_RETURN(std::vector<Tuple> input,
                             WalkNode(*node.children[0], page, hook));
      std::vector<Tuple> out;
      out.reserve(input.size());
      for (const Tuple& t : input) {
        Tuple projected;
        projected.reserve(node.columns.size());
        for (int c : node.columns) projected.push_back(t[static_cast<size_t>(c)]);
        out.push_back(std::move(projected));
      }
      return out;
    }
    case PlanKind::kJoin: {
      DELEX_ASSIGN_OR_RETURN(std::vector<Tuple> left,
                             WalkNode(*node.children[0], page, hook));
      DELEX_ASSIGN_OR_RETURN(std::vector<Tuple> right,
                             WalkNode(*node.children[1], page, hook));
      std::vector<Tuple> out;
      EvalJoin(node, left, right, &out);
      return out;
    }
  }
  return Status::Internal("unhandled plan node kind");
}

/// From-scratch IE evaluation: the blackbox over each whole region.
class ExtractHook final : public IEHook {
 public:
  Status EvalIE(const PlanNode& node, const Page& page,
                const std::vector<Tuple>& /*inputs*/,
                const std::vector<RegionGroup>& groups,
                std::vector<std::vector<Tuple>>* outputs) override {
    for (size_t g = 0; g < groups.size(); ++g) {
      const TextSpan region = groups[g].region;
      std::string_view text =
          std::string_view(page.content)
              .substr(static_cast<size_t>(region.start),
                      static_cast<size_t>(region.length()));
      (*outputs)[g] = node.extractor->Extract(text, region.start, Tuple());
    }
    return Status::OK();
  }
};

}  // namespace

Result<std::vector<Tuple>> WalkPlan(const PlanNode& root, const Page& page,
                                    IEHook* hook) {
  return WalkNode(root, page, hook);
}

Result<std::vector<Tuple>> ExecutePlan(const PlanNode& root, const Page& page) {
  ExtractHook hook;
  return WalkPlan(root, page, &hook);
}

Result<std::vector<Tuple>> ExecutePlanOnSnapshot(const PlanNode& root,
                                                 const Snapshot& snapshot) {
  std::vector<Tuple> all;
  for (const Page& page : snapshot.pages()) {
    DELEX_ASSIGN_OR_RETURN(std::vector<Tuple> rows, ExecutePlan(root, page));
    for (Tuple& row : rows) {
      Tuple with_did;
      with_did.reserve(row.size() + 1);
      with_did.push_back(page.did);
      for (Value& v : row) with_did.push_back(std::move(v));
      all.push_back(std::move(with_did));
    }
  }
  return all;
}

}  // namespace xlog
}  // namespace delex
