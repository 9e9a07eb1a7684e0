#ifndef DELEX_OPTIMIZER_OPTIMIZER_H_
#define DELEX_OPTIMIZER_OPTIMIZER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "optimizer/search.h"
#include "optimizer/stats_collector.h"

namespace delex {

/// \brief The per-snapshot optimizer façade (§6 end-to-end): statistics
/// from the recent runs (a sample only before the first), priced on the
/// incoming pair's evaluated pages, then a search of the plan space.
class Optimizer {
 public:
  struct Options {
    StatsCollectorOptions collector;
    /// How many recent snapshot pairs feed the averaged statistics
    /// (Fig 13b's knob).
    int history_snapshots = 3;
  };

  Optimizer(xlog::PlanNodePtr plan, const UnitAnalysis& analysis,
            Options options);
  Optimizer(xlog::PlanNodePtr plan, const UnitAnalysis& analysis)
      : Optimizer(std::move(plan), analysis, Options()) {}

  /// Takes the incoming pair (two whole snapshots, or one shard's views
  /// of them): its m, f and d_blocks over the pages the engine will
  /// evaluate (PairStats; every page when `page_fast_path` is off) price
  /// the next choice. Until a run has been observed (NeedsSample) the
  /// pair is also sampled into the history window (CollectStats, as tasks
  /// on `pool`, or on the calling thread when it is null); after that
  /// this call reads no page content. Its elapsed time is most of the
  /// run's "Opt" phase.
  Status ObserveSnapshotPair(const SnapshotView& current,
                             const SnapshotView& previous, uint64_t seed,
                             ThreadPool* pool, bool page_fast_path = true);

  /// Learns from a finished run with trial pages (DelexEngine::
  /// RunSnapshot's trial_pages): pushes StatsFromRun into the history
  /// window, unless the run evaluated no page that had a previous version.
  /// From then on ObserveSnapshotPair samples no more.
  void ObserveRun(const RunStats& run);

  /// True until the first ObserveRun: the next ObserveSnapshotPair
  /// samples the pair.
  bool NeedsSample() const { return !observed_run_; }

  /// Algorithm 1 over the averaged statistics and the last observed
  /// pair's m, f and d_blocks. Requires a sample or an observed run.
  Result<MatcherAssignment> ChooseAssignment(double* estimated_cost = nullptr);

  /// \brief Audit of the last ChooseAssignment — per unit, every
  /// candidate's whole-plan estimate (only that unit's matcher swapped),
  /// the winner, the margin to the best alternative, and the statistics
  /// that fed the estimate. The raw material of the run report's
  /// "decisions" array, so matcher switches across generations stay
  /// attributable. Recording costs 4 plan estimates per unit.
  struct DecisionAudit {
    bool valid = false;        ///< a choice was made and recorded
    double chosen_plan_us = 0; ///< Greedy's estimate of the chosen plan
    // Snapshot-level stats inputs, over the evaluated pages.
    double f = 0;              ///< fraction of pages with a previous version
    double m = 0;              ///< evaluated pages in the snapshot
    int history_window = 0;    ///< observations in the averaged stats
    /// The last observation was a sample of this pair, not a run.
    bool sampled = false;

    struct Unit {
      /// Whole-plan estimated µs per candidate, indexed by MatcherIndex.
      std::array<double, kNumMatcherKinds> candidate_plan_us = {};
      MatcherKind winner = MatcherKind::kDN;
      MatcherKind runner_up = MatcherKind::kDN;
      /// Runner-up plan µs − winner plan µs. Negative when the greedy
      /// search kept a locally suboptimal unit for a globally better plan.
      double margin_us = 0;
      // Unit-level stats inputs.
      double a = 0, l = 0;
    };
    std::vector<Unit> units;
  };

  /// The audit of the most recent ChooseAssignment; `valid` is false
  /// before the first choice.
  const DecisionAudit& LastAudit() const { return audit_; }

  /// Cost of an arbitrary assignment under the current statistics.
  Result<double> EstimateCost(const MatcherAssignment& assignment);

  /// Predicted per-unit cost (µs, index-aligned with the assignment) under
  /// the current statistics — the run report's predicted column.
  Result<std::vector<double>> EstimatePerUnitCost(
      const MatcherAssignment& assignment);

  /// All 4^n plans (Fig 12); requires few units.
  std::vector<MatcherAssignment> EnumerateAllPlans() const;

  const ChainStructure& chains() const { return chains_; }

 private:
  /// Averages the history window and sets the incoming pair's m, f and
  /// d_blocks on it.
  Result<CostModelStats> Averaged();

  void Push(CostModelStats stats);

  /// Fills audit_ from averaged_ for the plan Greedy just chose.
  void RecordAudit(const MatcherAssignment& chosen, double chosen_cost);

  xlog::PlanNodePtr plan_;
  const UnitAnalysis& analysis_;
  Options options_;
  ChainStructure chains_;
  std::deque<CostModelStats> history_;
  std::optional<CostModelStats> pair_;  // the incoming pair's m, f, d_blocks
  bool observed_run_ = false;
  bool sampled_ = false;     // the last ObserveSnapshotPair sampled
  CostModelStats averaged_;  // refreshed by Averaged()
  DecisionAudit audit_;
};

}  // namespace delex

#endif  // DELEX_OPTIMIZER_OPTIMIZER_H_
