#ifndef DELEX_SHARD_SHARDED_ENGINE_H_
#define DELEX_SHARD_SHARDED_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "delex/engine.h"
#include "delex/run_stats.h"
#include "shard/partition.h"
#include "storage/snapshot.h"
#include "xlog/plan.h"

namespace delex {
namespace shard {

/// \brief Hash-partitioned multi-shard Delex engine.
///
/// Partitions each snapshot into N page shards by URL hash (see
/// partition.h for the invariants) and drives one DelexEngine per shard,
/// each with its own work_dir subdirectory (`shard<K>/`: reuse files,
/// `.idx` sidecars, result caches) so a shard can be inspected,
/// corrupted-and-degraded, or later re-balanced in isolation.
///
/// Two-level scheduling: one lightweight driver thread per shard runs that
/// shard's reader-prefetch and ordered write-back stages (mostly I/O),
/// while every shard submits its page-evaluation tasks into ONE shared
/// ThreadPool — so N shards × M pages never oversubscribe the machine; the
/// pool width bounds total compute. Within a shard the ordered write-back
/// keeps reuse files byte-identical to a single-engine run over the same
/// page subset, at every shard/thread combination.
///
/// The merge step re-interleaves per-shard result rows into global
/// snapshot page order (exact, not canonicalized: shards emit rows grouped
/// by page, pages carry global dids, so a cursor per shard reproduces the
/// unsharded row order byte for byte) and folds per-shard RunStats into
/// one merged view via RunStats::MergeFrom + histogram folding.
class ShardedEngine {
 public:
  struct Options {
    /// Root directory; shard K lives in `<work_dir>/shard<K>/`.
    std::string work_dir = "/tmp/delex-shards";

    /// Number of engine shards (>= 1). The shard count is part of the
    /// on-disk layout: re-opening a work_dir with a different count
    /// orphans the old reuse files (pages re-extract from scratch).
    int num_shards = 1;

    /// Width of the shared worker pool (0 = one per hardware thread).
    int num_threads = 1;

    // Per-shard engine knobs, passed through to DelexEngine::Options.
    bool disable_exact_fast_path = false;
    bool disable_page_fast_path = false;
    bool fold_unit_operators = true;
  };

  /// Per-run, per-shard outputs (optional out-param of RunSnapshot): the
  /// harness uses these to feed each shard's optimizer its own measured
  /// costs and to emit per-shard run-report summaries.
  struct ShardRunStats {
    std::vector<RunStats> per_shard;
    std::vector<double> shard_seconds;  ///< per-shard wall clock
  };

  ShardedEngine(xlog::PlanNodePtr plan, Options options);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Initializes every shard engine (creates `shard<K>/` dirs).
  Status Init();

  int num_shards() const { return options_.num_shards; }
  /// The shared worker pool (null before Init). It is idle between
  /// RunSnapshot calls, when the per-shard optimizers sample on it.
  ThreadPool* pool() const { return pool_.get(); }
  const xlog::PlanNodePtr& plan() const { return plan_; }
  /// Unit analysis (identical across shards — same plan).
  const UnitAnalysis& analysis() const;
  size_t NumUnits() const;
  /// Completed runs (uniform across shards).
  int generation() const;
  /// Work dir of shard `k` (`<work_dir>/shard<K>`).
  std::string ShardWorkDir(int k) const;

  /// Positions every shard as if `generation` runs completed in this
  /// work_dir (DelexEngine::Resume per shard).
  Status Resume(int generation);

  /// Runs one snapshot across all shards with a single assignment
  /// broadcast to every shard. Returns merged, globally page-ordered,
  /// did-prefixed result tuples — byte-identical to an unsharded run.
  Result<std::vector<Tuple>> RunSnapshot(const Snapshot& current,
                                         const Snapshot* previous,
                                         const MatcherAssignment& assignment,
                                         RunStats* stats);

  /// Same, with one assignment per shard (each shard's optimizer can pick
  /// its own plan), optional per-shard stats out, and each shard picking
  /// up to `trial_pages` trial pages of its own (DelexEngine::RunSnapshot).
  Result<std::vector<Tuple>> RunSnapshot(
      const Snapshot& current, const Snapshot* previous,
      const std::vector<MatcherAssignment>& assignments, RunStats* stats,
      ShardRunStats* shard_stats, int trial_pages = 0);

 private:
  xlog::PlanNodePtr plan_;
  Options options_;
  bool initialized_ = false;
  std::unique_ptr<ThreadPool> pool_;  // the one shared worker pool
  std::vector<std::unique_ptr<DelexEngine>> shards_;
};

/// \brief Differential oracle leg for sharding (DELEX_PARANOID tooling):
/// runs `series` through an unsharded serial engine and through sharded
/// configurations (2 and 3 shards, shared pool) in throwaway work dirs
/// under `scratch_dir`, comparing exact (non-canonicalized) per-snapshot
/// results — sharded output must be byte-identical, not merely
/// set-equal. Returns OK on agreement, Corruption naming the first
/// divergence otherwise. Lives here rather than in delex/paranoid.cc
/// because the core engine library cannot depend on the shard layer.
Status ShardedDifferentialOracle(const xlog::PlanNodePtr& plan,
                                 const std::vector<Snapshot>& series,
                                 const MatcherAssignment& assignment,
                                 const std::string& scratch_dir);

}  // namespace shard
}  // namespace delex

#endif  // DELEX_SHARD_SHARDED_ENGINE_H_
