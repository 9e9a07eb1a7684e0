#ifndef DELEX_OPTIMIZER_STATS_COLLECTOR_H_
#define DELEX_OPTIMIZER_STATS_COLLECTOR_H_

#include <cstdint>

#include "common/status.h"
#include "delex/ie_unit.h"
#include "optimizer/cost_model.h"
#include "storage/snapshot.h"
#include "xlog/plan.h"

namespace delex {

class ThreadPool;

/// \brief Options for statistics estimation (§6.3: "we estimate the
/// parameters using a small sample S of P_{n+1} as well as the past k
/// snapshots").
struct StatsCollectorOptions {
  /// Pages sampled from the incoming snapshot (Fig 13a's knob).
  int sample_pages = 6;

  /// Pages are truncated to this many bytes during sampling. The cap must
  /// stay comparable to real page sizes — aggressive truncation distorts
  /// the leaf units' region lengths and match selectivities and misleads
  /// the plan search.
  int64_t max_sample_bytes = 8192;

  /// Candidate old regions matched per sampled region (mirrors the
  /// engine's candidate policy).
  int max_match_candidates = 2;
};

/// \brief Measures one snapshot pair: walks the plan from scratch over a
/// small sample of page pairs (xlog::WalkPlan with a recording IE hook),
/// timing every blackbox and trial-matching every region with each
/// matcher, to estimate the Fig 7 parameters.
///
/// `current` and `previous` are whole snapshots or one shard's views of
/// them. m counts the pages of `current`, d_blocks the content of
/// `previous`, and f the pages of `current` whose URL is in
/// `previous.snapshot()`; a shard's previous versions are all in its own
/// view, since a URL never changes shard.
///
/// Each sampled pair is one task of a TaskGroup on `pool`; with a null
/// `pool` the same tasks run one after another on the calling thread. The
/// sample draw and every count-derived statistic are the same either way;
/// only the timer-derived µs-per-character figures can differ. The call
/// waits for its own tasks only, so `pool` may be shared with other work.
///
/// The elapsed time of this call is the "Opt" component of Figure 11.
Result<CostModelStats> CollectStats(const xlog::PlanNodePtr& plan,
                                    const UnitAnalysis& analysis,
                                    const SnapshotView& current,
                                    const SnapshotView& previous,
                                    const StatsCollectorOptions& options,
                                    uint64_t seed, ThreadPool* pool);

/// \brief Element-wise average of per-snapshot statistics over a history
/// window (the "number of snapshots" knob of Fig 13b).
CostModelStats AverageStats(const std::vector<CostModelStats>& history);

}  // namespace delex

#endif  // DELEX_OPTIMIZER_STATS_COLLECTOR_H_
