#include "optimizer/optimizer.h"

#include "obs/trace.h"

namespace delex {

Optimizer::Optimizer(xlog::PlanNodePtr plan, const UnitAnalysis& analysis,
                     Options options)
    : plan_(std::move(plan)),
      analysis_(analysis),
      options_(options),
      chains_(ChainStructure::Build(plan_, analysis)) {}

Status Optimizer::ObserveSnapshotPair(const SnapshotView& current,
                                      const SnapshotView& previous,
                                      uint64_t seed, ThreadPool* pool) {
  DELEX_TRACE_SPAN("opt_observe_pair", static_cast<int64_t>(seed), "optimizer");
  DELEX_ASSIGN_OR_RETURN(
      CostModelStats stats,
      CollectStats(plan_, analysis_, current, previous, options_.collector,
                   seed, pool));
  history_.push_back(std::move(stats));
  while (static_cast<int>(history_.size()) > options_.history_snapshots) {
    history_.pop_front();
  }
  return Status::OK();
}

Result<CostModelStats> Optimizer::Averaged() {
  if (history_.empty()) {
    return Status::InvalidArgument("no statistics collected yet");
  }
  averaged_ =
      AverageStats(std::vector<CostModelStats>(history_.begin(), history_.end()));
  return averaged_;
}

Result<MatcherAssignment> Optimizer::ChooseAssignment(double* estimated_cost) {
  DELEX_TRACE_SPAN("opt_choose_assignment", obs::kTraceNoArg, "optimizer");
  DELEX_RETURN_NOT_OK(Averaged().status());
  PlanSearch search(averaged_, chains_);
  double chosen_cost = 0;
  MatcherAssignment chosen = search.Greedy(&chosen_cost);
  if (estimated_cost != nullptr) *estimated_cost = chosen_cost;
  RecordAudit(chosen, chosen_cost);
  return chosen;
}

void Optimizer::RecordAudit(const MatcherAssignment& chosen,
                            double chosen_cost) {
  audit_ = DecisionAudit();
  audit_.valid = true;
  audit_.chosen_plan_us = chosen_cost;
  audit_.f = averaged_.f;
  audit_.m = averaged_.m;
  audit_.history_window = static_cast<int>(history_.size());
  audit_.units.resize(chosen.per_unit.size());
  for (size_t u = 0; u < chosen.per_unit.size(); ++u) {
    DecisionAudit::Unit& unit = audit_.units[u];
    unit.winner = chosen.per_unit[u];
    double best_alt = 0;
    bool have_alt = false;
    MatcherAssignment probe = chosen;
    for (MatcherKind kind : kAllMatcherKinds) {
      probe.per_unit[u] = kind;
      const double cost = EstimatePlanCost(averaged_, chains_, probe);
      unit.candidate_plan_us[MatcherIndex(kind)] = cost;
      if (kind != unit.winner && (!have_alt || cost < best_alt)) {
        best_alt = cost;
        have_alt = true;
        unit.runner_up = kind;
      }
    }
    probe.per_unit[u] = unit.winner;
    unit.margin_us =
        best_alt - unit.candidate_plan_us[MatcherIndex(unit.winner)];
    if (u < averaged_.units.size()) {
      unit.a = averaged_.units[u].a;
      unit.l = averaged_.units[u].l;
    }
  }
}

Result<std::vector<double>> Optimizer::EstimatePerUnitCost(
    const MatcherAssignment& assignment) {
  DELEX_RETURN_NOT_OK(Averaged().status());
  return EstimatePlanUnitCosts(averaged_, chains_, assignment);
}

Result<double> Optimizer::EstimateCost(const MatcherAssignment& assignment) {
  DELEX_RETURN_NOT_OK(Averaged().status());
  return EstimatePlanCost(averaged_, chains_, assignment);
}

std::vector<MatcherAssignment> Optimizer::EnumerateAllPlans() const {
  CostModelStats dummy;
  dummy.units.resize(analysis_.units.size());
  PlanSearch search(dummy, chains_);
  return search.EnumerateAll();
}

}  // namespace delex
