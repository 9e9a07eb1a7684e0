#ifndef DELEX_OPTIMIZER_STATS_COLLECTOR_H_
#define DELEX_OPTIMIZER_STATS_COLLECTOR_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "delex/ie_unit.h"
#include "delex/run_stats.h"
#include "optimizer/cost_model.h"
#include "storage/snapshot.h"
#include "xlog/plan.h"

namespace delex {

class ThreadPool;

/// \brief Options for statistics estimation (§6.3: "we estimate the
/// parameters using a small sample S of P_{n+1} as well as the past k
/// snapshots").
struct StatsCollectorOptions {
  /// Fig 13a's knob: the pages an engine run trials (DelexEngine::
  /// RunSnapshot's trial_pages), and the pages CollectStats samples on an
  /// engine's first refresh, when there is no run to learn from yet.
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

/// \brief m, f and d_blocks of a snapshot pair over the pages the engine
/// evaluates — every page of `current` but those identical to their
/// previous version by digest and size (the classify pass's first test),
/// or every page with `page_fast_path` off. An identical page costs the
/// same under every plan, so it is left out of every price.
///
/// m counts the evaluated pages, f the share of them whose URL is in
/// `previous.snapshot()`, and d_blocks the blocks of those previous
/// versions. `*matched`, when given, receives the (index in `current`,
/// index in the whole previous snapshot) pair of each such page, in
/// snapshot order. `current` is a whole snapshot or one shard's view of
/// it; previous versions are looked up in `previous.snapshot()`, as the
/// engine looks them up.
CostModelStats PairStats(
    const SnapshotView& current, const SnapshotView& previous,
    bool page_fast_path,
    std::vector<std::pair<size_t, size_t>>* matched = nullptr);

/// \brief Measures one snapshot pair by sampling: walks the plan from
/// scratch over a small sample of the evaluated page pairs (PairStats's
/// `matched`; xlog::WalkPlan with a recording IE hook), timing every
/// blackbox and trial-matching every region with each matcher
/// (TrialMatch), to estimate the Fig 7 parameters. m, f and d_blocks are
/// PairStats's.
///
/// Each sampled pair is one task of a TaskGroup on `pool`; with a null
/// `pool` the same tasks run one after another on the calling thread. The
/// sample draw and every count-derived statistic are the same either way;
/// only the timer-derived µs-per-character figures can differ. The call
/// waits for its own tasks only, so `pool` may be shared with other work.
Result<CostModelStats> CollectStats(const xlog::PlanNodePtr& plan,
                                    const UnitAnalysis& analysis,
                                    const SnapshotView& current,
                                    const SnapshotView& previous,
                                    const StatsCollectorOptions& options,
                                    uint64_t seed, ThreadPool* pool,
                                    bool page_fast_path = true);

/// \brief The Fig 7 statistics of a finished run (§6.3's past snapshots,
/// the cheapest there are): a, l and extract µs per character over the
/// run's evaluated pages, and ĝ, ĥ, ŝ and match µs per character per
/// matcher kind from its trial pages (UnitRunStats::trials: the plan's
/// own matcher and the trials of the others, on the same pages). m and f
/// are the run's evaluated pages; d_blocks is left 0, since a plan takes
/// all three from the incoming pair (PairStats). nullopt when the run
/// evaluated no page that had a previous version: it has nothing to say
/// about matching.
std::optional<CostModelStats> StatsFromRun(const RunStats& run);

/// \brief Element-wise average of per-snapshot statistics over a history
/// window (the "number of snapshots" knob of Fig 13b).
CostModelStats AverageStats(const std::vector<CostModelStats>& history);

}  // namespace delex

#endif  // DELEX_OPTIMIZER_STATS_COLLECTOR_H_
