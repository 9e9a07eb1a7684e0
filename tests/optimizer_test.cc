// Tests for the optimizer: chain structure, cost-model behaviour
// (formulas (1)-(4)), Algorithm 1's restricted plan space and greedy
// search, exhaustive enumeration, statistics collection/averaging, the
// decision audit, and the cost drift the harness reports per run.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "harness/experiment.h"
#include "harness/programs.h"
#include "obs/history.h"
#include "optimizer/optimizer.h"
#include "optimizer/search.h"
#include "optimizer/stats_collector.h"
#include "shard/partition.h"

namespace delex {
namespace {

/// A hand-built CostModelStats for a linear 3-unit chain where matching
/// pays off: exact/ST find most overlap, extraction is expensive.
CostModelStats SyntheticStats(size_t units, double f) {
  CostModelStats stats;
  stats.f = f;
  stats.m = 1000;
  stats.d_blocks = 2000;
  stats.units.resize(units);
  for (UnitCostStats& u : stats.units) {
    u.a = 20;
    u.l = 400;
    u.extract_us_per_char = 0.5;
    u.b_blocks = 10;
    u.c_blocks = 15;
    // DN: only exact matches help a bit.
    u.g[MatcherIndex(MatcherKind::kDN)] = 0.8;
    u.h[MatcherIndex(MatcherKind::kDN)] = 0.2;
    u.s[MatcherIndex(MatcherKind::kDN)] = 0;
    // UD: cheap, finds most overlap.
    u.match_us_per_char[MatcherIndex(MatcherKind::kUD)] = 0.01;
    u.g[MatcherIndex(MatcherKind::kUD)] = 0.2;
    u.h[MatcherIndex(MatcherKind::kUD)] = 1.5;
    u.s[MatcherIndex(MatcherKind::kUD)] = 1;
    // ST: pricier, finds slightly more.
    u.match_us_per_char[MatcherIndex(MatcherKind::kST)] = 0.12;
    u.g[MatcherIndex(MatcherKind::kST)] = 0.15;
    u.h[MatcherIndex(MatcherKind::kST)] = 1.8;
    u.s[MatcherIndex(MatcherKind::kST)] = 1;
    // RU selectivities resolve through the source at costing time.
    u.g[MatcherIndex(MatcherKind::kRU)] = 1.0;
  }
  return stats;
}

ChainStructure LinearChains(const ProgramSpec& spec) {
  auto analysis = AnalyzeUnits(spec.plan);
  EXPECT_TRUE(analysis.ok());
  return ChainStructure::Build(spec.plan, *analysis);
}

TEST(ChainStructureTest, PlayHasRawInputOnlyAtBottomUnit) {
  ProgramSpec spec = *MakeProgram("play");
  ChainStructure chains = LinearChains(spec);
  int raw_count = 0;
  for (bool raw : chains.raw_input) raw_count += raw ? 1 : 0;
  EXPECT_EQ(raw_count, 1);  // only the paragraph unit reads the document
  EXPECT_EQ(chains.chains.size(), 2u);
}

TEST(CostModel, ExtractionDominatesWhenNothingMatches) {
  CostModelStats stats = SyntheticStats(1, 0.9);
  double dn = EstimateUnitCost(stats, 0, MatcherKind::kDN, false);
  double ud = EstimateUnitCost(stats, 0, MatcherKind::kUD, false);
  // With g[UD] far below g[DN], UD should win despite its matching cost.
  EXPECT_LT(ud, dn);
}

TEST(CostModel, NoPreviousVersionsMeansMatchersCannotHelp) {
  CostModelStats stats = SyntheticStats(1, 0.0);  // f = 0
  double dn = EstimateUnitCost(stats, 0, MatcherKind::kDN, false);
  double ud = EstimateUnitCost(stats, 0, MatcherKind::kUD, false);
  double st = EstimateUnitCost(stats, 0, MatcherKind::kST, false);
  // All pay full extraction; DN is cheapest (no match I/O at all).
  EXPECT_LE(dn, ud);
  EXPECT_LE(dn, st);
}

TEST(CostModel, RuPricingDropsMatchCost) {
  CostModelStats stats = SyntheticStats(1, 0.9);
  double st_real = EstimateUnitCost(stats, 0, MatcherKind::kST, false);
  double st_ru = EstimateUnitCost(stats, 0, MatcherKind::kST, true);
  EXPECT_LT(st_ru, st_real);
}

TEST(CostModel, MonotoneInLeftoverFraction) {
  CostModelStats stats = SyntheticStats(1, 0.9);
  double cheap = EstimateUnitCost(stats, 0, MatcherKind::kUD, false);
  stats.units[0].g[MatcherIndex(MatcherKind::kUD)] = 0.9;
  double expensive = EstimateUnitCost(stats, 0, MatcherKind::kUD, false);
  EXPECT_LT(cheap, expensive);
}

TEST(PlanCost, RuResolvesToChainSourceBelow) {
  ProgramSpec spec = *MakeProgram("play");
  ChainStructure chains = LinearChains(spec);
  CostModelStats stats = SyntheticStats(4, 0.9);

  // Bottom unit ST, everything above RU: the RU units are priced at their
  // ST selectivity without matching cost — cheaper than all-DN.
  MatcherAssignment layered = MatcherAssignment::Uniform(4, MatcherKind::kRU);
  // Find the bottom (raw-input) unit.
  for (size_t u = 0; u < 4; ++u) {
    if (chains.raw_input[u]) layered.per_unit[u] = MatcherKind::kST;
  }
  MatcherAssignment all_dn = MatcherAssignment::Uniform(4, MatcherKind::kDN);
  EXPECT_LT(EstimatePlanCost(stats, chains, layered),
            EstimatePlanCost(stats, chains, all_dn));

  // RU with no source anywhere degrades to DN pricing.
  MatcherAssignment all_ru = MatcherAssignment::Uniform(4, MatcherKind::kRU);
  EXPECT_DOUBLE_EQ(EstimatePlanCost(stats, chains, all_ru),
                   EstimatePlanCost(stats, chains, all_dn));
}

TEST(PlanCost, RuCrossChainSourceMustRunEarlier) {
  // award's two raw-input chains both start at an extractParagraph copy:
  // unit 0 (#1) and unit 4 (#12). Units run in index order, and RU's
  // match cache holds only what earlier units recorded.
  ProgramSpec spec = *MakeProgram("award");
  auto analysis = AnalyzeUnits(spec.plan);
  ASSERT_TRUE(analysis.ok());
  ChainStructure chains = ChainStructure::Build(spec.plan, *analysis);
  const size_t n = analysis->units.size();
  ASSERT_GT(n, 4u);
  ASSERT_EQ(analysis->units[0].name, "extractParagraph#1");
  ASSERT_EQ(analysis->units[4].name, "extractParagraph#12");
  ASSERT_TRUE(chains.raw_input[0]);
  ASSERT_TRUE(chains.raw_input[4]);
  ASSERT_NE(chains.chain_of_unit[0], chains.chain_of_unit[4]);
  CostModelStats stats = SyntheticStats(n, 0.9);

  // Unit 0 on RU, its only UD source (unit 4) running later: priced as DN.
  MatcherAssignment ru_first = MatcherAssignment::Uniform(n, MatcherKind::kDN);
  ru_first.per_unit[0] = MatcherKind::kRU;
  ru_first.per_unit[4] = MatcherKind::kUD;
  MatcherAssignment dn_first = ru_first;
  dn_first.per_unit[0] = MatcherKind::kDN;
  EXPECT_EQ(EstimatePlanUnitCosts(stats, chains, ru_first)[0],
            EstimatePlanUnitCosts(stats, chains, dn_first)[0]);

  // Unit 2 on RU with unit 0 on UD: the source runs first, so UD pricing.
  MatcherAssignment ru_later = MatcherAssignment::Uniform(n, MatcherKind::kDN);
  ru_later.per_unit[0] = MatcherKind::kUD;
  ru_later.per_unit[2] = MatcherKind::kRU;
  EXPECT_EQ(EstimatePlanUnitCosts(stats, chains, ru_later)[2],
            EstimateUnitCost(stats, 2, MatcherKind::kUD, /*ru_priced=*/true));
  EXPECT_LT(EstimatePlanUnitCosts(stats, chains, ru_later)[2],
            EstimateUnitCost(stats, 2, MatcherKind::kDN, /*ru_priced=*/true));
}

TEST(PlanSearch, EnumerationCoversFullSpace) {
  ProgramSpec spec = *MakeProgram("play");
  ChainStructure chains = LinearChains(spec);
  CostModelStats stats = SyntheticStats(4, 0.5);
  PlanSearch search(stats, chains);
  std::vector<MatcherAssignment> all = search.EnumerateAll();
  EXPECT_EQ(all.size(), 256u);
  std::set<std::string> unique;
  for (const MatcherAssignment& a : all) unique.insert(a.ToString());
  EXPECT_EQ(unique.size(), 256u);
}

TEST(PlanSearch, GreedyRespectsRestrictedSpace) {
  // Algorithm 1 plans use at most one ST/UD per chain, RU only above it.
  for (const char* name : {"play", "chair", "advise", "award"}) {
    ProgramSpec spec = *MakeProgram(name);
    auto analysis = AnalyzeUnits(spec.plan);
    ASSERT_TRUE(analysis.ok());
    ChainStructure chains = ChainStructure::Build(spec.plan, *analysis);
    CostModelStats stats = SyntheticStats(analysis->units.size(), 0.9);
    PlanSearch search(stats, chains);
    MatcherAssignment plan = search.Greedy();

    for (const IEChain& chain : chains.chains) {
      int expensive = 0;
      bool seen_expensive_from_bottom = false;
      for (size_t pos = chain.units.size(); pos-- > 0;) {
        MatcherKind kind =
            plan.per_unit[static_cast<size_t>(chain.units[pos])];
        if (kind == MatcherKind::kST || kind == MatcherKind::kUD) {
          ++expensive;
          seen_expensive_from_bottom = true;
        }
        if (kind == MatcherKind::kRU && !seen_expensive_from_bottom) {
          // RU below any expensive matcher in its own chain must have a
          // cross-chain source.
          bool cross = false;
          for (const IEChain& other : chains.chains) {
            int bottom = other.units.back();
            MatcherKind bk = plan.per_unit[static_cast<size_t>(bottom)];
            if (chains.raw_input[static_cast<size_t>(bottom)] &&
                (bk == MatcherKind::kST || bk == MatcherKind::kUD)) {
              cross = true;
            }
          }
          EXPECT_TRUE(cross) << name << ": plan " << plan.ToString();
        }
      }
      EXPECT_LE(expensive, 1) << name << ": plan " << plan.ToString();
    }
  }
}

TEST(PlanSearch, GreedyChoosesDnWhenNoOverlapExists) {
  ProgramSpec spec = *MakeProgram("play");
  ChainStructure chains = LinearChains(spec);
  CostModelStats stats = SyntheticStats(4, 0.0);  // no previous versions
  PlanSearch search(stats, chains);
  MatcherAssignment plan = search.Greedy();
  for (MatcherKind kind : plan.per_unit) {
    EXPECT_TRUE(kind == MatcherKind::kDN || kind == MatcherKind::kRU)
        << plan.ToString();
  }
}

TEST(PlanSearch, GreedyNeverWorseThanAllDnByItsOwnModel) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    ProgramSpec spec = *MakeProgram("award");
    auto analysis = AnalyzeUnits(spec.plan);
    ASSERT_TRUE(analysis.ok());
    ChainStructure chains = ChainStructure::Build(spec.plan, *analysis);
    CostModelStats stats =
        SyntheticStats(analysis->units.size(), 0.3 + 0.2 * seed);
    PlanSearch search(stats, chains);
    double greedy_cost = 0;
    search.Greedy(&greedy_cost);
    double dn_cost = search.Cost(
        MatcherAssignment::Uniform(analysis->units.size(), MatcherKind::kDN));
    EXPECT_LE(greedy_cost, dn_cost + 1e-9);
  }
}

TEST(StatsCollector, MeasuresPlausibleParameters) {
  // chair runs on the DBLife profile (97% identical pages), so trial
  // matching should find most overlap. With the page fast path off the
  // engine evaluates every page, so every page is priced and sampled.
  ProgramSpec spec = *MakeProgram("chair");
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 20;
  std::vector<Snapshot> series = GenerateSeries(profile, 2, 9);
  auto analysis = AnalyzeUnits(spec.plan);
  ASSERT_TRUE(analysis.ok());
  StatsCollectorOptions options;
  options.sample_pages = 8;
  auto stats = CollectStats(spec.plan, *analysis, series[1], series[0],
                            options, 1, /*pool=*/nullptr,
                            /*page_fast_path=*/false);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NEAR(stats->f, 1.0, 0.1);  // no churn in two snapshots at rate .003
  EXPECT_EQ(stats->m, 20);
  ASSERT_EQ(stats->units.size(), 3u);
  const UnitCostStats& para = stats->units[0];
  EXPECT_GT(para.a, 0);
  EXPECT_GT(para.l, 0);
  EXPECT_GT(para.extract_us_per_char, 0);
  for (MatcherKind kind : {MatcherKind::kUD, MatcherKind::kST}) {
    double g = para.g[MatcherIndex(kind)];
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 1.0);
  }
  // On a mostly-identical corpus, matchers should find most content.
  EXPECT_LT(para.g[MatcherIndex(MatcherKind::kST)], 0.5);
}

/// Compares the count-derived statistics of two CollectStats calls; the
/// µs-per-character fields come from timers and are left out.
void ExpectSameCounts(const CostModelStats& a, const CostModelStats& b) {
  EXPECT_EQ(a.f, b.f);
  EXPECT_EQ(a.m, b.m);
  EXPECT_EQ(a.d_blocks, b.d_blocks);
  ASSERT_EQ(a.units.size(), b.units.size());
  for (size_t u = 0; u < a.units.size(); ++u) {
    SCOPED_TRACE("unit " + std::to_string(u));
    const UnitCostStats& x = a.units[u];
    const UnitCostStats& y = b.units[u];
    EXPECT_EQ(x.a, y.a);
    EXPECT_EQ(x.l, y.l);
    EXPECT_EQ(x.g, y.g);
    EXPECT_EQ(x.h, y.h);
    EXPECT_EQ(x.s, y.s);
    EXPECT_EQ(x.b_blocks, y.b_blocks);
    EXPECT_EQ(x.c_blocks, y.c_blocks);
  }
}

TEST(StatsCollector, PoolAndInlineAgree) {
  // DBLife pairs are mostly byte-identical, Wikipedia pairs mostly not, so
  // with the page fast path off both the skipped and the full
  // previous-version walk run here; with it on, only changed pairs are
  // drawn.
  ThreadPool pool(4);
  // A failed task nobody drained is the pool's business, not this call's.
  pool.Submit([] { return Status::Internal("earlier task failed"); });
  StatsCollectorOptions options;
  options.sample_pages = 8;
  for (const auto& [name, pages] :
       {std::pair<std::string, int>{"chair", 40}, {"play", 12}}) {
    SCOPED_TRACE(name);
    ProgramSpec spec = *MakeProgram(name);
    DatasetProfile profile = spec.Profile();
    profile.num_sources = pages;
    std::vector<Snapshot> series = GenerateSeries(profile, 2, 5);
    auto analysis = AnalyzeUnits(spec.plan);
    ASSERT_TRUE(analysis.ok());
    for (bool fast_path : {false, true}) {
      SCOPED_TRACE(fast_path ? "fast path on" : "fast path off");
      auto inline_stats = CollectStats(spec.plan, *analysis, series[1],
                                       series[0], options, 3, nullptr,
                                       fast_path);
      auto pooled_stats = CollectStats(spec.plan, *analysis, series[1],
                                       series[0], options, 3, &pool,
                                       fast_path);
      ASSERT_TRUE(inline_stats.ok()) << inline_stats.status().ToString();
      ASSERT_TRUE(pooled_stats.ok()) << pooled_stats.status().ToString();
      ExpectSameCounts(*inline_stats, *pooled_stats);
    }
  }
}

TEST(StatsCollector, ShardViewMatchesCopiedSubSnapshot) {
  // A shard's optimizer samples its index lists over the whole snapshots.
  // Its statistics must be those of the same pages copied out into
  // sub-snapshots: m, f and d_blocks count the shard's own evaluated
  // pages and their previous versions.
  ProgramSpec spec = *MakeProgram("chair");
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 40;
  profile.page_add_rate = 0.15;  // some pages lack a previous version
  profile.page_delete_rate = 0.15;
  std::vector<Snapshot> series = GenerateSeries(profile, 2, 5);
  auto analysis = AnalyzeUnits(spec.plan);
  ASSERT_TRUE(analysis.ok());
  StatsCollectorOptions options;
  options.sample_pages = 8;
  const int num_shards = 3;
  const std::vector<SnapshotView> current =
      shard::RouteSnapshot(series[1], num_shards);
  const std::vector<SnapshotView> previous =
      shard::RouteSnapshot(series[0], num_shards);
  for (int k = 0; k < num_shards; ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    const SnapshotView& cur = current[static_cast<size_t>(k)];
    const SnapshotView& prev = previous[static_cast<size_t>(k)];
    Snapshot cur_copy;
    for (size_t j = 0; j < cur.NumPages(); ++j) {
      cur_copy.AddExistingPage(cur.page(j));
    }
    Snapshot prev_copy;
    for (size_t j = 0; j < prev.NumPages(); ++j) {
      prev_copy.AddExistingPage(prev.page(j));
    }
    const uint64_t seed = 3 + static_cast<uint64_t>(k);
    auto from_view = CollectStats(spec.plan, *analysis, cur, prev, options,
                                  seed, nullptr);
    auto from_copy = CollectStats(spec.plan, *analysis, cur_copy, prev_copy,
                                  options, seed, nullptr);
    ASSERT_TRUE(from_view.ok()) << from_view.status().ToString();
    ASSERT_TRUE(from_copy.ok()) << from_copy.status().ToString();
    ExpectSameCounts(*from_view, *from_copy);
    // By hand: the pages not identical to their previous version by
    // digest and size, and the bytes of those previous versions.
    int64_t evaluated = 0;
    int64_t previous_bytes = 0;
    for (const Page& page : cur_copy.pages()) {
      std::optional<size_t> q = prev_copy.FindByUrl(page.url);
      const Page* q_page = q ? &prev_copy.pages()[*q] : nullptr;
      if (q_page != nullptr && q_page->content_hash == page.content_hash &&
          q_page->content.size() == page.content.size()) {
        continue;
      }
      ++evaluated;
      if (q_page != nullptr) {
        previous_bytes += static_cast<int64_t>(q_page->content.size());
      }
    }
    EXPECT_EQ(from_view->m, static_cast<double>(evaluated));
    EXPECT_EQ(from_view->d_blocks,
              static_cast<double>((previous_bytes + kBlockSize - 1) /
                                  kBlockSize));
    EXPECT_LT(from_view->d_blocks,
              static_cast<double>(prev_copy.TotalBlocks()));
    EXPECT_LT(from_view->f, 1.0);
  }
}

TEST(StatsCollector, IdenticalPairWalksOnce) {
  // Paired with itself, every sampled page is byte-identical to its
  // previous version, so the root extractor sees each drawn page once.
  // Identical pages are drawn only with the page fast path off: with it
  // on, the engine never evaluates them.
  ProgramSpec spec = *MakeProgram("chair");
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 40;
  Snapshot snapshot = GenerateSeries(profile, 1, 7)[0];
  auto analysis = AnalyzeUnits(spec.plan);
  ASSERT_TRUE(analysis.ok());
  StatsCollectorOptions options;
  options.sample_pages = 8;
  const uint64_t seed = 11;

  // CollectStats's draw: every page has a previous version.
  Rng rng(seed);
  int64_t expected_chars = 0;
  for (int draw = 0; draw < options.sample_pages; ++draw) {
    const Page& page = snapshot.pages()[rng.Uniform(snapshot.NumPages())];
    expected_chars += std::min<int64_t>(
        options.max_sample_bytes, static_cast<int64_t>(page.content.size()));
  }

  auto paragraph = spec.registry->Lookup("extractParagraph");
  ASSERT_TRUE(paragraph.ok());
  const int64_t before = (*paragraph)->stats().chars_processed;
  auto stats = CollectStats(spec.plan, *analysis, snapshot, snapshot, options,
                            seed, nullptr, /*page_fast_path=*/false);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ((*paragraph)->stats().chars_processed - before, expected_chars);
}

TEST(StatsCollector, AverageIsElementwiseMean) {
  CostModelStats a = SyntheticStats(1, 0.4);
  CostModelStats b = SyntheticStats(1, 0.8);
  b.units[0].a = 40;
  CostModelStats avg = AverageStats({a, b});
  EXPECT_DOUBLE_EQ(avg.f, 0.6);
  EXPECT_DOUBLE_EQ(avg.units[0].a, 30);
}

TEST(Optimizer, EndToEndChoosesReusefulPlanOnStableCorpus) {
  ProgramSpec spec = *MakeProgram("chair");
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 40;
  std::vector<Snapshot> series = GenerateSeries(profile, 3, 17);
  auto analysis = AnalyzeUnits(spec.plan);
  ASSERT_TRUE(analysis.ok());
  Optimizer optimizer(spec.plan, *analysis);
  EXPECT_FALSE(optimizer.ChooseAssignment().ok());  // no stats yet
  ASSERT_TRUE(
      optimizer.ObserveSnapshotPair(series[1], series[0], 1, nullptr).ok());
  ASSERT_TRUE(
      optimizer.ObserveSnapshotPair(series[2], series[1], 2, nullptr).ok());
  auto assignment = optimizer.ChooseAssignment();
  ASSERT_TRUE(assignment.ok());
  // On a 97%-identical corpus the chosen plan must exploit reuse somehow —
  // all-DN still benefits from the exact fast path, but the estimate for a
  // reuseful plan should not exceed the all-DN estimate.
  auto chosen_cost = optimizer.EstimateCost(*assignment);
  auto dn_cost = optimizer.EstimateCost(
      MatcherAssignment::Uniform(analysis->units.size(), MatcherKind::kDN));
  ASSERT_TRUE(chosen_cost.ok());
  ASSERT_TRUE(dn_cost.ok());
  EXPECT_LE(*chosen_cost, *dn_cost + 1e-9);
}

TEST(Optimizer, ChooseAssignmentRecordsDecisionAudit) {
  ProgramSpec spec = *MakeProgram("chair");
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 40;
  std::vector<Snapshot> series = GenerateSeries(profile, 2, 21);
  auto analysis = AnalyzeUnits(spec.plan);
  ASSERT_TRUE(analysis.ok());
  Optimizer optimizer(spec.plan, *analysis);
  EXPECT_FALSE(optimizer.LastAudit().valid);  // no choice made yet
  ASSERT_TRUE(
      optimizer.ObserveSnapshotPair(series[1], series[0], 1, nullptr).ok());
  auto assignment = optimizer.ChooseAssignment();
  ASSERT_TRUE(assignment.ok());

  const Optimizer::DecisionAudit& audit = optimizer.LastAudit();
  ASSERT_TRUE(audit.valid);
  ASSERT_EQ(audit.units.size(), assignment->per_unit.size());
  EXPECT_GT(audit.m, 0);
  EXPECT_GE(audit.f, 0);
  EXPECT_EQ(audit.history_window, 1);  // one observed snapshot pair

  // The audit's chosen plan cost is the cost model's own estimate.
  auto chosen_cost = optimizer.EstimateCost(*assignment);
  ASSERT_TRUE(chosen_cost.ok());
  EXPECT_NEAR(audit.chosen_plan_us, *chosen_cost,
              1e-6 * std::max(1.0, *chosen_cost));

  for (size_t u = 0; u < audit.units.size(); ++u) {
    const Optimizer::DecisionAudit::Unit& unit = audit.units[u];
    // The winner column matches the assignment actually returned, and its
    // candidate entry equals the chosen whole-plan cost.
    EXPECT_EQ(unit.winner, assignment->per_unit[u]) << "unit " << u;
    EXPECT_NEAR(unit.candidate_plan_us[MatcherIndex(unit.winner)],
                audit.chosen_plan_us, 1e-6 * std::max(1.0, *chosen_cost));
    // Every candidate was priced, the runner-up differs from the winner,
    // and the margin is exactly runner-up − winner.
    EXPECT_NE(unit.runner_up, unit.winner);
    double best_alt = -1;
    for (MatcherKind kind : kAllMatcherKinds) {
      double cost = unit.candidate_plan_us[MatcherIndex(kind)];
      EXPECT_GE(cost, 0) << "unpriced candidate for unit " << u;
      if (kind == unit.winner) continue;
      if (best_alt < 0 || cost < best_alt) best_alt = cost;
    }
    EXPECT_NEAR(unit.margin_us,
                best_alt - unit.candidate_plan_us[MatcherIndex(unit.winner)],
                1e-6 * std::max(1.0, best_alt));
    // Statistics inputs were captured from the averaged stats.
    EXPECT_GT(unit.l, 0);
    EXPECT_GE(unit.a, 0);
  }
}

/// A one-unit run of 10 pages: 6 identical, 4 evaluated, 2 of them with a
/// previous version, both trial pages. The unit ran UD, whose own work
/// there is its tally; DN and ST were trialed.
RunStats HandBuiltRun() {
  RunStats run;
  run.pages = 10;
  run.pages_with_previous = 8;
  run.pages_identical = 6;
  run.units.resize(1);
  UnitRunStats& unit = run.units[0];
  unit.input_tuples = 8;
  unit.input_chars = 800;
  unit.output_tuples = 12;
  unit.chars_extracted = 300;
  unit.extract_us = 600;
  unit.trial_pages = 2;
  unit.trials[MatcherIndex(MatcherKind::kDN)] = {4, 400, 300, 1, 0, 3};
  unit.trials[MatcherIndex(MatcherKind::kUD)] = {4, 400, 120, 5, 6, 80};
  unit.trials[MatcherIndex(MatcherKind::kST)] = {4, 400, 60, 7, 8, 200};
  return run;
}

TEST(StatsFromRun, YieldsTheHandComputedStatistics) {
  std::optional<CostModelStats> stats = StatsFromRun(HandBuiltRun());
  ASSERT_TRUE(stats.has_value());
  EXPECT_DOUBLE_EQ(stats->m, 4);    // evaluated pages
  EXPECT_DOUBLE_EQ(stats->f, 0.5);  // 2 of them with a previous version
  ASSERT_EQ(stats->units.size(), 1u);
  const UnitCostStats& unit = stats->units[0];
  EXPECT_DOUBLE_EQ(unit.a, 2);                    // 8 inputs / 4 pages
  EXPECT_DOUBLE_EQ(unit.l, 100);                  // 800 chars / 8 inputs
  EXPECT_DOUBLE_EQ(unit.extract_us_per_char, 2);  // 600 µs / 300 chars
  const size_t dn = MatcherIndex(MatcherKind::kDN);
  const size_t ud = MatcherIndex(MatcherKind::kUD);
  const size_t st = MatcherIndex(MatcherKind::kST);
  // DN: the exact hit copies, the other 300 of 400 chars extract.
  EXPECT_DOUBLE_EQ(unit.g[dn], 0.75);
  EXPECT_DOUBLE_EQ(unit.h[dn], 0.25);
  EXPECT_DOUBLE_EQ(unit.s[dn], 0);
  // UD: the plan's own matcher.
  EXPECT_DOUBLE_EQ(unit.g[ud], 0.3);
  EXPECT_DOUBLE_EQ(unit.h[ud], 1.25);
  EXPECT_DOUBLE_EQ(unit.s[ud], 1.5);
  EXPECT_DOUBLE_EQ(unit.match_us_per_char[ud], 0.2);
  // ST: the trials.
  EXPECT_DOUBLE_EQ(unit.g[st], 0.15);
  EXPECT_DOUBLE_EQ(unit.h[st], 1.75);
  EXPECT_DOUBLE_EQ(unit.s[st], 2);
  EXPECT_DOUBLE_EQ(unit.match_us_per_char[st], 0.5);
  EXPECT_DOUBLE_EQ(unit.match_us_per_char[MatcherIndex(MatcherKind::kRU)], 0);
}

TEST(StatsFromRun, AllIdenticalRunLeavesTheWindowUnchanged) {
  ProgramSpec spec = *MakeProgram("talk");  // one IE unit
  auto analysis = AnalyzeUnits(spec.plan);
  ASSERT_TRUE(analysis.ok());
  ASSERT_EQ(analysis->units.size(), 1u);
  RunStats identical = HandBuiltRun();
  identical.pages_identical = identical.pages_with_previous;
  EXPECT_FALSE(StatsFromRun(identical).has_value());

  Optimizer optimizer(spec.plan, *analysis);
  EXPECT_TRUE(optimizer.NeedsSample());
  optimizer.ObserveRun(HandBuiltRun());
  EXPECT_FALSE(optimizer.NeedsSample());
  ASSERT_TRUE(optimizer.ChooseAssignment().ok());
  EXPECT_EQ(optimizer.LastAudit().history_window, 1);
  EXPECT_FALSE(optimizer.LastAudit().sampled);
  optimizer.ObserveRun(identical);
  ASSERT_TRUE(optimizer.ChooseAssignment().ok());
  EXPECT_EQ(optimizer.LastAudit().history_window, 1);
}

/// The pair (`current`, `previous`) with `extra` pages appended that are
/// byte-identical in both snapshots.
std::pair<Snapshot, Snapshot> WithIdenticalPages(const Snapshot& current,
                                                 const Snapshot& previous,
                                                 int extra) {
  std::pair<Snapshot, Snapshot> out;
  for (const Page& page : current.pages()) out.first.AddExistingPage(page);
  for (const Page& page : previous.pages()) out.second.AddExistingPage(page);
  for (int i = 0; i < extra; ++i) {
    const std::string url = "http://unchanged.example/" + std::to_string(i);
    const std::string& text =
        previous.pages()[static_cast<size_t>(i) % previous.NumPages()].content;
    out.first.AddPage(url, text);
    out.second.AddPage(url, text);
  }
  return out;
}

/// Every unit's candidate prices (that unit's matcher swapped into the
/// all-DN plan) and the greedy plan, under fixed µs-per-character weights
/// so only the counts decide.
std::pair<std::vector<double>, std::string> PricesAndPlan(
    CostModelStats stats, const ChainStructure& chains) {
  for (UnitCostStats& unit : stats.units) {
    unit.extract_us_per_char = 0.01;
    unit.match_us_per_char[MatcherIndex(MatcherKind::kUD)] = 0.001;
    unit.match_us_per_char[MatcherIndex(MatcherKind::kST)] = 0.004;
  }
  std::vector<double> prices;
  for (size_t u = 0; u < stats.units.size(); ++u) {
    for (MatcherKind kind : kAllMatcherKinds) {
      MatcherAssignment plan =
          MatcherAssignment::Uniform(stats.units.size(), MatcherKind::kDN);
      plan.per_unit[u] = kind;
      prices.push_back(EstimatePlanCost(stats, chains, plan));
    }
  }
  return {prices, PlanSearch(stats, chains).Greedy().ToString()};
}

TEST(Optimizer, IdenticalPagesLeavePricesAndPlan) {
  // An identical page costs the same under every plan, so adding some to
  // a pair must change no candidate's price and not the chosen plan —
  // whether the statistics come from a sample of the pair or from a run.
  ProgramSpec spec = *MakeProgram("play");
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 16;
  std::vector<Snapshot> series = GenerateSeries(profile, 2, 13);
  auto analysis = AnalyzeUnits(spec.plan);
  ASSERT_TRUE(analysis.ok());
  const ChainStructure chains = ChainStructure::Build(spec.plan, *analysis);
  const auto [current, previous] =
      WithIdenticalPages(series[1], series[0], /*extra=*/40);

  StatsCollectorOptions options;
  options.sample_pages = 4;
  auto plain = CollectStats(spec.plan, *analysis, series[1], series[0],
                            options, 5, nullptr);
  auto padded = CollectStats(spec.plan, *analysis, current, previous, options,
                             5, nullptr);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(padded.ok()) << padded.status().ToString();
  EXPECT_GT(plain->m, 0);
  ExpectSameCounts(*plain, *padded);
  EXPECT_EQ(PricesAndPlan(*plain, chains), PricesAndPlan(*padded, chains));

  // From a run: the same run statistics, then the two pairs.
  RunStats run = HandBuiltRun();
  run.units.assign(analysis->units.size(), run.units[0]);
  for (size_t u = 0; u < run.units.size(); ++u) {
    run.units[u].input_chars += 100 * static_cast<int64_t>(u);
    run.units[u].trials[MatcherIndex(MatcherKind::kUD)].leftover_chars +=
        40 * static_cast<int64_t>(u);
  }
  std::vector<Optimizer::DecisionAudit> audits;
  std::vector<MatcherAssignment> plans;
  for (const auto& [cur, prev] :
       {std::pair<const Snapshot*, const Snapshot*>{&series[1], &series[0]},
        {&current, &previous}}) {
    Optimizer optimizer(spec.plan, *analysis);
    optimizer.ObserveRun(run);
    ASSERT_TRUE(optimizer.ObserveSnapshotPair(*cur, *prev, 1, nullptr).ok());
    auto plan = optimizer.ChooseAssignment();
    ASSERT_TRUE(plan.ok());
    plans.push_back(*plan);
    audits.push_back(optimizer.LastAudit());
  }
  EXPECT_EQ(plans[0], plans[1]);
  EXPECT_EQ(audits[0].m, audits[1].m);
  EXPECT_EQ(audits[0].f, audits[1].f);
  ASSERT_EQ(audits[0].units.size(), audits[1].units.size());
  for (size_t u = 0; u < audits[0].units.size(); ++u) {
    EXPECT_EQ(audits[0].units[u].candidate_plan_us,
              audits[1].units[u].candidate_plan_us)
        << "unit " << u;
  }
}

TEST(Optimizer, OnlyTheFirstRefreshSamples) {
  // Through RunSeries, on one engine and on two shards: the first refresh
  // has no run to learn from and samples; every later one plans from the
  // run before it. The history store keeps each decision's source.
  ProgramSpec spec = *MakeProgram("chair");
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 60;
  std::vector<Snapshot> series = GenerateSeries(profile, 4, 23);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "delex-optimizer-source")
          .string();
  for (int shards : {1, 2}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    std::filesystem::remove_all(dir);
    DelexSolutionOptions options;
    options.num_shards = shards;
    options.num_threads = 2;
    auto solution = MakeDelexSolution(spec, dir, options);
    ASSERT_TRUE(RunSeries(solution.get(), series).ok());
    std::vector<obs::HistoryRecord> records;
    ASSERT_TRUE(obs::HistoryStore::LoadFile(
                    dir + "/" + obs::kHistoryFileName, &records)
                    .ok());
    ASSERT_EQ(records.size(), 4u);
    EXPECT_TRUE(records[0].decisions.empty());  // warm-up
    for (size_t r = 1; r < records.size(); ++r) {
      ASSERT_FALSE(records[r].decisions.empty()) << "refresh " << r;
      for (const auto& decision : records[r].decisions) {
        EXPECT_EQ(decision.source, r == 1 ? "sample" : "run")
            << "refresh " << r << " unit " << decision.unit;
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(CostDrift, MeanRelativeErrorOnlyWithPrediction) {
  RunStats stats;
  stats.units.resize(2);
  stats.units[0].match_us = 50;
  stats.units[0].extract_us = 150;  // measured 200 µs
  stats.units[1].copy_us = 100;
  stats.units[1].capture_us = 200;  // measured 300 µs
  Result<double> drift = CostDrift({100, 300}, stats);
  ASSERT_TRUE(drift.ok());
  EXPECT_DOUBLE_EQ(*drift, (100.0 / 200 + 0.0 / 300) / 2);

  // A run without a prediction reports a negative drift, not an error.
  Result<double> none = CostDrift({}, stats);
  ASSERT_TRUE(none.ok());
  EXPECT_LT(*none, 0);
}

TEST(CostDrift, RejectsMismatchedUnitCount) {
  RunStats stats;
  stats.units.resize(3);
  EXPECT_FALSE(CostDrift({1.0}, stats).ok());
  EXPECT_FALSE(CostDrift({1.0, 2.0, 3.0, 4.0}, stats).ok());
}

/// Runs `solution` over `series` and returns what DescribeRun reported
/// after each snapshot.
std::vector<std::pair<obs::RunReportMeta, obs::OptimizerReport>> Describe(
    Solution* solution, const std::vector<Snapshot>& series) {
  std::vector<std::pair<obs::RunReportMeta, obs::OptimizerReport>> out;
  const Snapshot* previous = nullptr;
  for (const Snapshot& current : series) {
    RunStats stats;
    EXPECT_TRUE(solution->RunSnapshot(current, previous, &stats).ok());
    previous = &current;
    out.emplace_back();
    solution->DescribeRun(&out.back().first, &out.back().second);
  }
  return out;
}

TEST(CostDrift, HarnessReportsDriftForPredictedRunsOnly) {
  ProgramSpec spec = *MakeProgram("chair");
  DatasetProfile profile = spec.Profile();
  profile.num_sources = 20;
  std::vector<Snapshot> series = GenerateSeries(profile, 3, 99);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "delex-optimizer-drift")
          .string();
  for (int shards : {1, 2}) {
    std::filesystem::remove_all(dir);
    DelexSolutionOptions options;
    options.num_shards = shards;
    auto solution = MakeDelexSolution(spec, dir, options);
    auto runs = Describe(solution.get(), series);
    ASSERT_EQ(runs.size(), 3u);
    // The warm-up has no prediction; every optimized run has one.
    EXPECT_LT(runs[0].second.cost_drift, 0) << shards << " shards";
    for (size_t i = 1; i < runs.size(); ++i) {
      EXPECT_GE(runs[i].second.cost_drift, 0) << shards << " shards";
      // Sharded runs: each shard compares its own prediction with its own
      // measured costs, and the merged drift is their mean.
      const auto& shard_rows = runs[i].first.shards;
      if (shard_rows.empty()) continue;
      double drift_sum = 0;
      for (const obs::RunReportMeta::ShardSummary& s : shard_rows) {
        EXPECT_GE(s.cost_drift, 0) << "shard " << s.shard;
        drift_sum += s.cost_drift;
      }
      EXPECT_DOUBLE_EQ(runs[i].second.cost_drift,
                       drift_sum / static_cast<double>(shard_rows.size()));
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace delex
