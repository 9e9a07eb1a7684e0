// Plan explorer: peek inside Delex's optimizer. For a chosen program this
// prints the execution tree, its IE units and chains, the statistics the
// collector measures on a real snapshot pair, the cost estimates of the
// interesting plans, and what Algorithm 1 finally picks — the §6 pipeline
// made visible.
//
//   ./plan_explorer [program] [pages]

#include <cstdio>
#include <cstdlib>

#include "delex/ie_unit.h"
#include "harness/experiment.h"
#include "harness/programs.h"
#include "harness/table.h"
#include "optimizer/optimizer.h"
#include "optimizer/search.h"
#include "optimizer/stats_collector.h"

using namespace delex;

int main(int argc, char** argv) {
  std::string program = argc > 1 ? argv[1] : "play";
  int pages = argc > 2 ? std::atoi(argv[2]) : 80;

  auto spec_or = MakeProgram(program);
  if (!spec_or.ok()) {
    std::fprintf(stderr, "%s\n", spec_or.status().ToString().c_str());
    std::fprintf(stderr, "programs: talk chair advise blockbuster play award infobox\n");
    return 1;
  }
  ProgramSpec spec = std::move(spec_or).ValueOrDie();

  std::printf("=== xlog program '%s' ===\n%s\n", program.c_str(),
              spec.xlog_source.c_str());
  std::printf("=== execution tree ===\n%s\n",
              xlog::PlanToString(*spec.plan).c_str());

  auto analysis_or = AnalyzeUnits(spec.plan);
  if (!analysis_or.ok()) {
    std::fprintf(stderr, "%s\n", analysis_or.status().ToString().c_str());
    return 1;
  }
  const UnitAnalysis& analysis = *analysis_or;

  std::printf("=== IE units (Definition 5) ===\n");
  Table units({"unit", "blackbox", "alpha", "beta", "folded ops"});
  for (const IEUnit& unit : analysis.units) {
    units.AddRow({std::to_string(unit.index), unit.name,
                  std::to_string(unit.alpha), std::to_string(unit.beta),
                  std::to_string(unit.chain.size() - 1)});
  }
  units.Print();

  ChainStructure chains = ChainStructure::Build(spec.plan, analysis);
  std::printf("\n=== IE chains (Definition 6), top unit first ===\n");
  for (size_t c = 0; c < chains.chains.size(); ++c) {
    std::printf("  chain %zu:", c);
    for (int u : chains.chains[c].units) {
      std::printf(" %s", analysis.units[static_cast<size_t>(u)].name.c_str());
    }
    std::printf("\n");
  }

  // Collect real statistics over one evolved snapshot pair.
  DatasetProfile profile = spec.Profile();
  profile.num_sources = pages;
  std::vector<Snapshot> series = GenerateSeries(profile, 2, 7);
  auto stats_or = CollectStats(spec.plan, analysis, series[1], series[0],
                               StatsCollectorOptions(), 99,
                               /*pool=*/nullptr);
  if (!stats_or.ok()) {
    std::fprintf(stderr, "%s\n", stats_or.status().ToString().c_str());
    return 1;
  }
  const CostModelStats& stats = *stats_or;

  std::printf("\n=== measured statistics (Figure 7 parameters) ===\n");
  std::printf("f = %.2f (pages with a previous version), m = %.0f pages\n\n",
              stats.f, stats.m);
  Table measured({"unit", "a (tuples/page)", "l (chars)", "extract us/char",
                  "g[UD]", "g[ST]", "match us/char [ST]"});
  for (size_t u = 0; u < stats.units.size(); ++u) {
    const UnitCostStats& s = stats.units[u];
    measured.AddRow(
        {analysis.units[u].name, Table::Num(s.a, 1), Table::Num(s.l, 0),
         Table::Num(s.extract_us_per_char, 4),
         Table::Num(s.g[MatcherIndex(MatcherKind::kUD)], 2),
         Table::Num(s.g[MatcherIndex(MatcherKind::kST)], 2),
         Table::Num(s.match_us_per_char[MatcherIndex(MatcherKind::kST)], 4)});
  }
  measured.Print();

  PlanSearch search(stats, chains);
  std::printf("\n=== cost estimates (§6.3) ===\n");
  Table costs({"plan", "estimated cost (s)"});
  for (MatcherKind kind :
       {MatcherKind::kDN, MatcherKind::kUD, MatcherKind::kST}) {
    MatcherAssignment uniform =
        MatcherAssignment::Uniform(analysis.units.size(), kind);
    costs.AddRow({"uniform " + std::string(MatcherKindName(kind)),
                  Table::Num(search.Cost(uniform) / 1e6, 3)});
  }
  double chosen_cost = 0;
  MatcherAssignment chosen = search.Greedy(&chosen_cost);
  costs.AddRow({"Algorithm 1 -> " + chosen.ToString(),
                Table::Num(chosen_cost / 1e6, 3)});
  costs.Print();

  if (analysis.units.size() <= 6) {
    std::vector<MatcherAssignment> all = search.EnumerateAll();
    size_t better = 0;
    for (const MatcherAssignment& plan : all) {
      if (search.Cost(plan) < chosen_cost) ++better;
    }
    std::printf(
        "\nplan space: %zu assignments; the model ranks Algorithm 1's pick "
        "#%zu\n",
        all.size(), better + 1);
  }
  return 0;
}
