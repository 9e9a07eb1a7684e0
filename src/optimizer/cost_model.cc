#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace delex {

ChainStructure ChainStructure::Build(const xlog::PlanNodePtr& root,
                                     const UnitAnalysis& analysis) {
  ChainStructure out;
  out.chains = PartitionChains(root, analysis);
  out.chain_of_unit.assign(analysis.units.size(), -1);
  out.pos_in_chain.assign(analysis.units.size(), -1);
  out.raw_input.assign(analysis.units.size(), false);
  for (size_t c = 0; c < out.chains.size(); ++c) {
    const IEChain& chain = out.chains[c];
    for (size_t pos = 0; pos < chain.units.size(); ++pos) {
      int u = chain.units[pos];
      out.chain_of_unit[static_cast<size_t>(u)] = static_cast<int>(c);
      out.pos_in_chain[static_cast<size_t>(u)] = static_cast<int>(pos);
    }
  }
  for (const IEUnit& unit : analysis.units) {
    // A unit has raw-page input iff its input subtree contains no IE node.
    out.raw_input[static_cast<size_t>(unit.index)] =
        CountIENodes(*unit.input) == 0;
  }
  return out;
}

double EstimateUnitCost(const CostModelStats& stats, int u,
                        MatcherKind effective, bool ru_priced) {
  const UnitCostStats& unit = stats.units[static_cast<size_t>(u)];
  const size_t mi = MatcherIndex(effective);
  const double a1 = unit.a;  // â_{n+1} ≈ a_n (consecutive snapshots)
  const double an = unit.a;
  const double m1 = stats.m;
  const double f = stats.f;

  // (1) identify matching input tuples: read I_U^n + compare contexts.
  double cost = stats.w_io_us_per_block * unit.b_blocks +
                stats.w_find_us * an * a1 * m1 * f;

  // (2) match the identified regions: read the previous versions of the
  // evaluated pages (d_blocks counts only those). RU pays neither the page
  // I/O (pages are already pinned for the units that ran the real
  // matcher) nor any meaningful CPU.
  if (effective != MatcherKind::kDN && !ru_priced) {
    cost += stats.w_io_us_per_block * stats.d_blocks;
    cost += unit.match_us_per_char[mi] * a1 * m1 * f * unit.s[mi] * unit.l;
  }

  // (3) extract over extraction regions: pages without a previous version
  // in full, matched pages over the leftover fraction ĝ.
  double g = unit.g[mi];
  cost += unit.extract_us_per_char *
          (a1 * m1 * (1 - f) * unit.l + a1 * m1 * f * unit.l * g);

  // (4) reuse output tuples for copy regions.
  double h = unit.h[mi];
  cost += stats.w_io_us_per_block * unit.c_blocks +
          stats.w_copy_us * an * m1 * (a1 * m1 * f * h) / stats.v_buckets;

  return cost;
}

namespace {

/// Resolves what matcher an RU-assigned unit actually recycles: the
/// nearest ST/UD unit *below* it in its own chain, else an eligible
/// bottom unit of another chain (raw input + ST/UD) that runs before it,
/// else none. Units are numbered in walk order, and RU's match cache holds
/// only what earlier units of the page pair recorded.
MatcherKind ResolveRuSource(const ChainStructure& chains,
                            const MatcherAssignment& assignment, int u) {
  int c = chains.chain_of_unit[static_cast<size_t>(u)];
  int pos = chains.pos_in_chain[static_cast<size_t>(u)];
  const IEChain& chain = chains.chains[static_cast<size_t>(c)];
  for (size_t below = static_cast<size_t>(pos) + 1; below < chain.units.size();
       ++below) {
    MatcherKind k =
        assignment.per_unit[static_cast<size_t>(chain.units[below])];
    if (k == MatcherKind::kUD || k == MatcherKind::kST) return k;
  }
  for (size_t oc = 0; oc < chains.chains.size(); ++oc) {
    if (static_cast<int>(oc) == c) continue;
    int bottom = chains.chains[oc].units.back();
    if (bottom > u || !chains.raw_input[static_cast<size_t>(bottom)]) continue;
    MatcherKind k = assignment.per_unit[static_cast<size_t>(bottom)];
    if (k == MatcherKind::kUD || k == MatcherKind::kST) return k;
  }
  return MatcherKind::kDN;
}

}  // namespace

std::vector<double> EstimatePlanUnitCosts(const CostModelStats& stats,
                                          const ChainStructure& chains,
                                          const MatcherAssignment& assignment) {
  DELEX_CHECK_EQ(assignment.per_unit.size(), stats.units.size());
  std::vector<double> costs(stats.units.size(), 0.0);
  for (size_t u = 0; u < stats.units.size(); ++u) {
    MatcherKind kind = assignment.per_unit[u];
    if (kind == MatcherKind::kRU) {
      MatcherKind source =
          ResolveRuSource(chains, assignment, static_cast<int>(u));
      costs[u] = EstimateUnitCost(stats, static_cast<int>(u), source,
                                  /*ru_priced=*/true);
    } else {
      costs[u] = EstimateUnitCost(stats, static_cast<int>(u), kind,
                                  /*ru_priced=*/false);
    }
  }
  return costs;
}

double EstimatePlanCost(const CostModelStats& stats,
                        const ChainStructure& chains,
                        const MatcherAssignment& assignment) {
  double total = 0;
  for (double c : EstimatePlanUnitCosts(stats, chains, assignment)) total += c;
  return total;
}

Result<double> CostDrift(const std::vector<double>& predicted_unit_us,
                         const RunStats& stats) {
  if (predicted_unit_us.empty()) return -1.0;
  if (predicted_unit_us.size() != stats.units.size()) {
    return Status::InvalidArgument("prediction does not match run units");
  }
  double err_sum = 0;
  for (size_t u = 0; u < stats.units.size(); ++u) {
    const UnitRunStats& unit = stats.units[u];
    const double measured = static_cast<double>(unit.match_us) +
                            static_cast<double>(unit.extract_us) +
                            static_cast<double>(unit.copy_us) +
                            static_cast<double>(unit.capture_us);
    err_sum +=
        std::fabs(predicted_unit_us[u] - measured) / std::max(measured, 1.0);
  }
  return err_sum / static_cast<double>(stats.units.size());
}

double EstimateChainScratchCost(const CostModelStats& stats,
                                const IEChain& chain) {
  double total = 0;
  for (int u : chain.units) {
    const UnitCostStats& unit = stats.units[static_cast<size_t>(u)];
    total += unit.extract_us_per_char * unit.a * stats.m * unit.l;
  }
  return total;
}

}  // namespace delex
