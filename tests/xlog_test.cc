// Tests for the xlog layer: lexer/parser, builtin predicates, translation
// into execution trees, the plan walk and from-scratch execution.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "extract/dictionary_extractor.h"
#include "extract/registry.h"
#include "extract/segment_extractor.h"
#include "xlog/builtins.h"
#include "xlog/parser.h"
#include "xlog/plan.h"
#include "xlog/translate.h"

namespace delex {
namespace xlog {
namespace {

// ---------------------------------------------------------------------------
// Parser

TEST(Parser, ParsesRulesTermsAndComments) {
  auto program = ParseProgram(R"(
    # a comment
    titles(d, t) :- docs(d), extractTitle(d, t).
    % another comment style
    good(t) :- titles(d, t), containsStr(t, "relevance feedback"),
               within(t, t, 100).
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->rules.size(), 2u);
  EXPECT_EQ(program->rules[0].head.predicate, "titles");
  EXPECT_EQ(program->rules[0].body.size(), 2u);
  EXPECT_EQ(program->TargetPredicate(), "good");

  const Atom& contains = program->rules[1].body[1];
  EXPECT_EQ(contains.predicate, "containsStr");
  EXPECT_EQ(contains.args[1].kind, Term::Kind::kString);
  EXPECT_EQ(contains.args[1].text, "relevance feedback");

  const Atom& within = program->rules[1].body[2];
  EXPECT_EQ(within.args[2].kind, Term::Kind::kInt);
  EXPECT_EQ(within.args[2].int_value, 100);
}

TEST(Parser, NegativeIntegerLiterals) {
  auto program = ParseProgram("p(x) :- docs(x), within(x, x, -5).");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->rules[0].body[1].args[2].int_value, -5);
}

struct BadSource {
  std::string name;
  std::string source;
};

class ParserErrors : public ::testing::TestWithParam<BadSource> {};

TEST_P(ParserErrors, RejectedWithInvalidArgument) {
  auto program = ParseProgram(GetParam().source);
  EXPECT_FALSE(program.ok());
  EXPECT_TRUE(program.status().IsInvalidArgument());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrors,
    ::testing::Values(
        BadSource{"empty", "   # nothing\n"},
        BadSource{"missing_period", "p(x) :- docs(x)"},
        BadSource{"missing_implies", "p(x) docs(x)."},
        BadSource{"unterminated_string", "p(x) :- q(x, \"abc)."},
        BadSource{"missing_paren", "p(x :- docs(x)."},
        BadSource{"bare_colon", "p(x) : docs(x)."}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Builtins

TEST(Builtins, LookupAndArity) {
  EXPECT_TRUE(IsBuiltin("immBefore"));
  EXPECT_TRUE(IsBuiltin("within"));
  EXPECT_FALSE(IsBuiltin("extractTitle"));
  EXPECT_EQ(BuiltinArity(BuiltinPred::kWithin), 3);
  EXPECT_EQ(BuiltinArity(BuiltinPred::kBefore), 2);
}

TEST(Builtins, SpanPredicateSemantics) {
  std::string page = "irrelevant";
  auto eval = [&](BuiltinPred pred, std::vector<Value> args) {
    auto result = EvalBuiltin(pred, args, page);
    EXPECT_TRUE(result.ok());
    return *result;
  };
  EXPECT_TRUE(eval(BuiltinPred::kBefore, {TextSpan(0, 3), TextSpan(3, 6)}));
  EXPECT_FALSE(eval(BuiltinPred::kBefore, {TextSpan(0, 4), TextSpan(3, 6)}));
  EXPECT_TRUE(eval(BuiltinPred::kImmBefore, {TextSpan(0, 3), TextSpan(4, 6)}));
  EXPECT_FALSE(eval(BuiltinPred::kImmBefore, {TextSpan(0, 3), TextSpan(9, 12)}));
  EXPECT_TRUE(eval(BuiltinPred::kWithin,
                   {TextSpan(0, 3), TextSpan(5, 9), int64_t{10}}));
  EXPECT_FALSE(eval(BuiltinPred::kWithin,
                    {TextSpan(0, 3), TextSpan(5, 9), int64_t{9}}));
  EXPECT_TRUE(eval(BuiltinPred::kContains, {TextSpan(0, 10), TextSpan(2, 5)}));
  EXPECT_FALSE(eval(BuiltinPred::kContains, {TextSpan(2, 5), TextSpan(0, 10)}));
  EXPECT_TRUE(eval(BuiltinPred::kSameSpan, {TextSpan(1, 2), TextSpan(1, 2)}));
}

TEST(Builtins, ContainsStrReadsPageText) {
  std::string page = "the relevance feedback papers";
  auto yes = EvalBuiltin(BuiltinPred::kContainsStr,
                         {TextSpan(0, 29), std::string("relevance feedback")},
                         page);
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  auto no = EvalBuiltin(BuiltinPred::kContainsStr,
                        {TextSpan(0, 3), std::string("relevance")}, page);
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

TEST(Builtins, TypeErrorsReported) {
  auto bad = EvalBuiltin(BuiltinPred::kBefore,
                         {Value(int64_t{1}), Value(TextSpan(0, 1))}, "");
  EXPECT_FALSE(bad.ok());
}

// ---------------------------------------------------------------------------
// Translation + execution

ExtractorRegistry TestRegistry() {
  ExtractorRegistry registry;
  SegmentOptions seg;
  seg.delimiter = "\n";
  seg.work_per_char = 0;
  registry.Register(std::make_shared<SegmentExtractor>("extractLine", seg));
  DictionaryOptions dict;
  dict.work_per_char = 0;
  registry.Register(std::make_shared<DictionaryExtractor>(
      "extractName", std::vector<std::string>{"Ann", "Bob"}, dict));
  registry.Register(std::make_shared<DictionaryExtractor>(
      "extractConf", std::vector<std::string>{"SIGMOD", "VLDB"}, dict));
  return registry;
}

TEST(Translate, LinearRuleBuildsChainPlan) {
  ExtractorRegistry registry = TestRegistry();
  auto program = ParseProgram(
      "r(n) :- docs(d), extractLine(d, l), extractName(l, n).");
  ASSERT_TRUE(program.ok());
  auto plan = TranslateProgram(*program, registry);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->kind, PlanKind::kProject);
  EXPECT_EQ((*plan)->schema, std::vector<std::string>{"n"});
  EXPECT_EQ(CountIENodes(**plan), 2);
}

TEST(Translate, IntensionalAtomsJoinOnSharedVars) {
  ExtractorRegistry registry = TestRegistry();
  auto program = ParseProgram(R"(
    names(d, n) :- docs(d), extractName(d, n).
    confs(d, c) :- docs(d), extractConf(d, c).
    pairs(n, c) :- names(d, n), confs(d, c), before(n, c).
  )");
  ASSERT_TRUE(program.ok());
  auto plan = TranslateProgram(*program, registry);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // π over σ over a join of the two subplans.
  bool has_join = false;
  std::vector<PlanNodePtr> nodes;
  CollectPostOrder(*plan, &nodes);
  for (const auto& node : nodes) has_join |= node->kind == PlanKind::kJoin;
  EXPECT_TRUE(has_join);
}

struct TranslateError {
  std::string name;
  std::string source;
};

class TranslateErrors : public ::testing::TestWithParam<TranslateError> {};

TEST_P(TranslateErrors, Rejected) {
  ExtractorRegistry registry = TestRegistry();
  auto program = ParseProgram(GetParam().source);
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(TranslateProgram(*program, registry).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TranslateErrors,
    ::testing::Values(
        TranslateError{"unknown_atom", "p(x) :- docs(d), mystery(d, x)."},
        TranslateError{"unbound_ie_input", "p(x) :- docs(d), extractName(q, x)."},
        TranslateError{"rebound_ie_output",
                       "p(d) :- docs(d), extractName(d, d)."},
        TranslateError{"unbound_head_var", "p(z) :- docs(d), extractName(d, x)."},
        TranslateError{"unbound_builtin_arg",
                       "p(x) :- docs(d), extractName(d, x), before(x, y)."},
        TranslateError{"recursion", "p(x) :- p(x), docs(x)."},
        TranslateError{"wrong_ie_arity",
                       "p(x) :- docs(d), extractName(d, x, x2)."},
        TranslateError{"docs_not_first",
                       "p(x) :- docs(d), extractName(d, x), docs(e)."}),
    [](const auto& info) { return info.param.name; });

TEST(Execute, EndToEndExtractionWithSelection) {
  ExtractorRegistry registry = TestRegistry();
  auto program = ParseProgram(R"(
    r(n, c) :- docs(d), extractLine(d, line), containsStr(line, "chairs"),
               extractName(line, n), extractConf(line, c), before(n, c).
  )");
  ASSERT_TRUE(program.ok());
  auto plan = TranslateProgram(*program, registry);
  ASSERT_TRUE(plan.ok());

  Page page;
  page.did = 0;
  page.content =
      "Ann chairs SIGMOD\n"
      "Bob attends VLDB\n"
      "VLDB chairs Bob mention\n";
  auto rows = ExecutePlan(**plan, page);
  ASSERT_TRUE(rows.ok());
  // Line 1: Ann before SIGMOD, has "chairs" -> kept.
  // Line 2: no "chairs" -> filtered.
  // Line 3: has "chairs" but Bob is after VLDB -> before() fails.
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(std::get<TextSpan>((*rows)[0][0]), TextSpan(0, 3));
  EXPECT_EQ(std::get<TextSpan>((*rows)[0][1]), TextSpan(11, 17));
}

TEST(Execute, JoinCombinesBranches) {
  ExtractorRegistry registry = TestRegistry();
  auto program = ParseProgram(R"(
    names(d, n) :- docs(d), extractName(d, n).
    confs(d, c) :- docs(d), extractConf(d, c).
    r(n, c) :- names(d, n), confs(d, c).
  )");
  ASSERT_TRUE(program.ok());
  auto plan = TranslateProgram(*program, registry);
  ASSERT_TRUE(plan.ok());
  Page page;
  page.content = "Ann Bob SIGMOD VLDB";
  auto rows = ExecutePlan(**plan, page);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);  // 2 names x 2 confs
}

TEST(Execute, SnapshotExecutionPrefixesDid) {
  ExtractorRegistry registry = TestRegistry();
  auto program = ParseProgram("r(n) :- docs(d), extractName(d, n).");
  ASSERT_TRUE(program.ok());
  auto plan = TranslateProgram(*program, registry);
  ASSERT_TRUE(plan.ok());
  Snapshot snapshot;
  snapshot.AddPage("u1", "Ann");
  snapshot.AddPage("u2", "Bob Bob");
  auto rows = ExecutePlanOnSnapshot(**plan, snapshot);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ(std::get<int64_t>((*rows)[0][0]), 0);
  EXPECT_EQ(std::get<int64_t>((*rows)[1][0]), 1);
  EXPECT_EQ(std::get<int64_t>((*rows)[2][0]), 1);
}

/// Extracts from scratch like ExecutePlan and records the region groups
/// each IE node's hook call was handed, keyed by extractor name.
class CountingHook final : public IEHook {
 public:
  Status EvalIE(const PlanNode& node, const Page& page,
                const std::vector<Tuple>& /*inputs*/,
                const std::vector<RegionGroup>& groups,
                std::vector<std::vector<Tuple>>* outputs) override {
    calls[node.extractor->Name()].push_back(groups);
    for (size_t g = 0; g < groups.size(); ++g) {
      const TextSpan region = groups[g].region;
      (*outputs)[g] = node.extractor->Extract(
          std::string_view(page.content)
              .substr(static_cast<size_t>(region.start),
                      static_cast<size_t>(region.length())),
          region.start, Tuple());
    }
    return Status::OK();
  }

  std::map<std::string, std::vector<std::vector<RegionGroup>>> calls;
};

TEST(WalkPlan, HookSeesEachDistinctRegionOnceAndRowsKeepMultiplicity) {
  ExtractorRegistry registry = TestRegistry();
  auto program = ParseProgram(
      "r(n, l) :- docs(d), extractName(d, n), extractLine(d, l).");
  ASSERT_TRUE(program.ok());
  auto plan = TranslateProgram(*program, registry);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  Page page;
  page.content = "Ann met Bob\nBob left";
  const std::vector<TextSpan> names = {TextSpan(0, 3), TextSpan(8, 11),
                                       TextSpan(12, 15)};
  const std::vector<TextSpan> lines = {TextSpan(0, 11), TextSpan(12, 20)};
  const TextSpan whole(0, static_cast<int64_t>(page.content.size()));

  CountingHook hook;
  auto rows = WalkPlan(**plan, page, &hook);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();

  // Every name tuple carries the same document region into extractLine:
  // one hook call, one group, holding all of them.
  ASSERT_EQ(hook.calls["extractLine"].size(), 1u);
  ASSERT_EQ(hook.calls["extractLine"][0].size(), 1u);
  const RegionGroup& group = hook.calls["extractLine"][0][0];
  EXPECT_EQ(group.region, whole);
  EXPECT_EQ(group.first, 0u);
  EXPECT_EQ(group.count, names.size());
  ASSERT_EQ(hook.calls["extractName"].size(), 1u);
  ASSERT_EQ(hook.calls["extractName"][0].size(), 1u);
  EXPECT_EQ(hook.calls["extractName"][0][0].count, 1u);

  // Every name row is paired with every line, names in document order.
  ASSERT_EQ(rows->size(), names.size() * lines.size());
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = 0; j < lines.size(); ++j) {
      const Tuple& row = (*rows)[i * lines.size() + j];
      ASSERT_EQ(row.size(), 2u);
      EXPECT_EQ(std::get<TextSpan>(row[0]), names[i]);
      EXPECT_EQ(std::get<TextSpan>(row[1]), lines[j]);
    }
  }
  auto oracle = ExecutePlan(**plan, page);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(*oracle, *rows);
}

TEST(Plan, ToStringShowsStructure) {
  ExtractorRegistry registry = TestRegistry();
  auto program = ParseProgram("r(n) :- docs(d), extractName(d, n).");
  ASSERT_TRUE(program.ok());
  auto plan = TranslateProgram(*program, registry);
  ASSERT_TRUE(plan.ok());
  std::string rendered = PlanToString(**plan);
  EXPECT_NE(rendered.find("IE[extractName]"), std::string::npos);
  EXPECT_NE(rendered.find("scan[docs]"), std::string::npos);
}

}  // namespace
}  // namespace xlog
}  // namespace delex
