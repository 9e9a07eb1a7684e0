#ifndef DELEX_DELEX_ENGINE_H_
#define DELEX_DELEX_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "delex/ie_unit.h"
#include "delex/run_stats.h"
#include "matcher/matcher.h"
#include "storage/result_cache.h"
#include "storage/reuse_file.h"
#include "storage/snapshot.h"
#include "xlog/plan.h"

namespace delex {

/// \brief The end-to-end Delex executor (§7).
///
/// One engine instance owns the reuse files of one (program, corpus)
/// stream. Feed it consecutive snapshots:
///
///   DelexEngine engine(plan, {.work_dir = "/tmp/delex"});
///   engine.Init();
///   engine.RunSnapshot(s0, nullptr, assignment0, &stats0);  // capture only
///   engine.RunSnapshot(s1, &s0, assignment1, &stats1);      // reuse + capture
///
/// Each run scans the current snapshot once, page by page, in snapshot
/// order; each IE unit's reuse files from the previous run are scanned
/// strictly sequentially alongside (§5.2). The run captures fresh reuse
/// files for the next snapshot (§4). Output tuples match from-scratch
/// execution exactly (Theorem 1) for extractors honoring their declared
/// (α, β).
class DelexEngine {
 public:
  struct Options {
    /// Directory for reuse files (created if absent).
    std::string work_dir = "/tmp/delex-work";

    /// Worker threads for page evaluation. Pages are mutually independent
    /// (each carries its own MatchContext), so the engine runs the
    /// per-page plan walk on a fixed ThreadPool, started by its first run
    /// and kept until the engine is destroyed: a reader stage keeps each
    /// reuse file's strictly-forward scan on the submitting thread, and an
    /// ordered write-back stage commits captures in snapshot page order,
    /// so results and next-generation reuse files are byte-identical at
    /// every thread count. 1 = the same pipeline with page evaluation
    /// inline on the calling thread (no pool thread starts); 0 = one
    /// worker per hardware thread. Ignored when `shared_pool` is set.
    int num_threads = 1;

    /// Worker pool shared with other engines (non-owning; must outlive the
    /// engine). When set, page-evaluation tasks are submitted here instead
    /// of a run-local pool, so N sharded engines × M pages never
    /// oversubscribe the machine: the pool's width bounds total compute
    /// while each engine keeps its own reader-prefetch and ordered
    /// write-back stages on the calling thread. Run completion is tracked
    /// per engine by a TaskGroup (ThreadPool::Wait would block on *other*
    /// engines' tasks), and results/reuse files remain byte-identical to a
    /// 1-thread run — the ordered write-back commits in snapshot page order
    /// regardless of which pool ran the page.
    ThreadPool* shared_pool = nullptr;

    /// Disable the exact-content fast path (forces the assigned matcher to
    /// run even on unchanged regions; used by ablation benches).
    bool disable_exact_fast_path = false;

    /// Disable the whole-page identical fast path: byte-identical pages
    /// are then evaluated like any other (region-level reuse still
    /// applies). The fast path short-circuits evaluation entirely for
    /// pages whose content digest and bytes match their previous version —
    /// reuse records relocate raw (zero decode / zero re-encode) and final
    /// rows come from the per-generation page result cache. Used by
    /// equivalence tests and the identical-fraction bench. Like
    /// disable_exact_fast_path, this gates only the *consuming* side:
    /// digests and the result cache are still captured, so a later run
    /// (e.g. after Resume) can enable the fast path against this
    /// generation's files.
    bool disable_page_fast_path = false;

    /// Disable σ/π folding: reuse at bare-blackbox level instead of IE-unit
    /// level (the §4 ablation).
    bool fold_unit_operators = true;
  };

  DelexEngine(xlog::PlanNodePtr plan, Options options);

  /// Analyzes IE units; must be called once before RunSnapshot.
  Status Init();

  const xlog::PlanNodePtr& plan() const { return plan_; }
  const UnitAnalysis& analysis() const { return analysis_; }
  size_t NumUnits() const { return analysis_.units.size(); }

  /// Executes the plan over `current`: a whole snapshot, or one shard's
  /// view of it. `previous` is the whole prior snapshot (null for the
  /// first run — everything extracts from scratch but results are still
  /// captured); each page's previous version is looked up there by URL.
  /// For a shard that finds exactly the shard's own previous pages, since
  /// a URL never changes shard. `assignment` maps each IE unit to a
  /// matcher; it is ignored when `previous` is null.
  ///
  /// `trial_pages` (the optimizer's sample size; 0 under a forced plan)
  /// picks that many trial pages among the evaluated pages that have a
  /// previous version, evenly spaced in snapshot order once the classify
  /// pass has run, so the choice depends on the snapshot pair alone. On a
  /// trial page each unit also runs TrialMatch for the real matchers (UD,
  /// ST) the plan did not give it, into UnitRunStats::trials: the
  /// statistics the optimizer plans the next refresh from. Trials touch no
  /// output, capture, RU match cache or file.
  ///
  /// Returns the result tuples, each prefixed with the page's did.
  Result<std::vector<Tuple>> RunSnapshot(const SnapshotView& current,
                                         const Snapshot* previous,
                                         const MatcherAssignment& assignment,
                                         RunStats* stats, int trial_pages = 0);

  /// Number of completed runs (also the reuse-file generation counter).
  int generation() const { return generation_; }

  /// Effective worker count of a run (resolves num_threads == 0).
  int EffectiveThreads() const;

  /// Pages in flight in the pipeline ring of a run at `width` workers
  /// (fewer if the snapshot has fewer pages): a fixed multiple of the task
  /// window (2·width + 2 pages in evaluation), so identical pages can queue
  /// behind a slow changed page while the reader goes on finding changed
  /// pages for the workers. A run of identical pages takes one slot and
  /// counts all its pages. Pipeline memory is bounded by this many pages,
  /// not by the snapshot.
  static size_t RingSlots(int width);

  /// Most pages one run of identical pages takes: a fixed cap, so run
  /// boundaries depend only on the snapshot pair (and, past a damaged
  /// page, on the reuse files), never on timing.
  static constexpr size_t kRunPages = 64;

  /// Resumes an interrupted stream: positions the engine as if
  /// `generation` runs had completed in this work_dir, so the next
  /// RunSnapshot consumes the reuse files that run left behind. Fails
  /// unless those files exist. Call after Init(), before any RunSnapshot.
  Status Resume(int generation);

 private:
  struct PageClass;
  struct PageContext;
  struct PageReuse;
  struct PageSlot;
  struct RunState;

  /// The classify pass: each page's previous version by URL, and whether
  /// the whole-page fast path applies (digests, sizes, then bytes equal).
  /// Runs in chunks on `pool` before the reader starts, inline without
  /// one; `*wait_us` gains the time the calling thread spent blocked.
  static std::vector<PageClass> ClassifyPages(const SnapshotView& current,
                                              const Snapshot* previous,
                                              bool fast_path, ThreadPool* pool,
                                              int width, int64_t* wait_us);

  /// Drains each unit's reuse reader for `q_did` into `*reuse` (one
  /// forward seek per unit — §5.2). Must be called from the single reader
  /// stage, in snapshot page order. A unit whose previous-generation bytes
  /// fail validation is dropped for the rest of the run (its pages
  /// re-extract from scratch) — corrupt reuse input degrades, it never
  /// fails the run or miscomputes. `stats` is the current page's shard.
  Status PrefetchPageReuse(int64_t q_did, std::vector<PageReuse>* reuse,
                           RunStats* stats);

  /// Marks unit `u`'s previous-generation reader unusable after `cause`
  /// (logged + counted); subsequent pages see no reuse for that unit.
  void DropCorruptReader(size_t u, const Status& cause, RunStats* stats);

  /// Reader stage for a run of identical pages starting at `slot->first`
  /// and ending before `end`: lifts each page's cached rows and each
  /// unit's groups, page by page, raw (no decode, no record-by-record
  /// copy). A page missing any piece ends the run before it and is left
  /// for full evaluation (`*demoted`); a page whose index entry fails for a
  /// unit ends the run with it, that unit's group decode-copied. Sets
  /// `slot->count` to the pages the run took — 0 if its first page was
  /// demoted, in which case the slot is for that page's evaluation.
  Status LiftRun(const SnapshotView& current, const Snapshot& previous,
                 const std::vector<PageClass>& classes, size_t end,
                 PageSlot* slot, size_t* demoted);

  /// Evaluates one page end to end: xlog::WalkPlan with EvalUnit as the
  /// IE hook. Const: all mutable state — capture buffers, stats shard,
  /// match cache — lives in the caller-owned PageContext, so any number
  /// of pages can run concurrently.
  Result<std::vector<Tuple>> EvalPage(PageContext* page_ctx) const;

  /// Evaluates `page` with no previous version into `*captures` — the
  /// fallback for a run's page whose lifted bytes fail at commit.
  Result<std::vector<Tuple>> EvalFromScratch(
      const Page& page, RunStats* stats,
      std::vector<PageCapture>* captures) const;

  /// Commits one ring entry: an evaluated page's capture buffers and rows,
  /// or a run's lifted groups and cached rows, to the reuse writers and
  /// this generation's result cache. A run's rows are decoded, and its
  /// groups' record framing checked, here, by whichever thread commits it;
  /// a page that fails either is evaluated from scratch instead. Caller
  /// must serialize commits in snapshot page order (the ordered write-back
  /// stage), and retires the entry after.
  Status CommitEntry(PageSlot* slot, const SnapshotView& current);
  Status CommitPage(PageSlot* slot);
  Status CommitRun(PageSlot* slot, const SnapshotView& current);

  /// Evaluates `unit` at its IE node (match → copy → extract → capture)
  /// over the walk's region `groups` of `inputs`. Sets (*outputs)[g] to
  /// the blackbox outputs of group g that pass the unit's folded σ; the
  /// walk then evaluates the folded σ/π above the IE node as ordinary
  /// nodes.
  Status EvalUnit(const IEUnit& unit, const std::vector<Tuple>& inputs,
                  const std::vector<xlog::RegionGroup>& groups,
                  PageContext* page_ctx,
                  std::vector<std::vector<Tuple>>* outputs) const;

  /// Whether (input ++ blackbox output) passes the unit's folded σ
  /// predicates, replayed in chain order through its folded π.
  Result<bool> PassesFoldedChain(const IEUnit& unit, const Tuple& input_tuple,
                                 const Tuple& blackbox_output,
                                 std::string_view page_text) const;

  /// The page pipeline over `current`. A classify pass resolves every
  /// page's previous version and its identity on the pool. The reader (this
  /// thread) then walks the pages in snapshot order as ring entries: a run
  /// of consecutive identical pages is one entry, lifted raw and marked
  /// ready at once; any other page is one entry, prefetched and evaluated
  /// on the pool — or inline on this thread at width 1 without a shared
  /// pool. Entries pass through a fixed ring of RingSlots() pages: the
  /// reader fills an entry once every page RingSlots() before its end has
  /// committed, waiting if it has not. Whichever thread finds the front
  /// entry ready commits it and every ready entry behind it, and retires
  /// each as it commits, in snapshot order: its stats shard folds into
  /// `*stats`, its rows move to the end of `*rows`, and its buffers are
  /// released. Marks up to `trial_pages` trial pages after the classify
  /// pass (see RunSnapshot).
  Status RunPages(const SnapshotView& current, const Snapshot* previous,
                  int trial_pages, std::vector<Tuple>* rows, RunStats* stats);

  std::string ReusePathPrefix(int unit_index, int generation) const;
  std::string ResultCachePath(int generation) const;

  xlog::PlanNodePtr plan_;
  Options options_;
  UnitAnalysis analysis_;
  bool initialized_ = false;
  int generation_ = 0;

  // Per-run state. The writers/readers are touched only by the ordered
  // write-back and reader stages respectively; workers see them never.
  std::vector<std::unique_ptr<UnitReuseWriter>> writers_;
  std::vector<std::unique_ptr<UnitReuseReader>> readers_;
  // Per-unit reader health: 0 after the unit's previous-generation bytes
  // failed validation (open or mid-scan). A dropped reader's pages extract
  // from scratch for the rest of the run.
  std::vector<char> reader_ok_;
  // Page result cache: written for every page each run; the previous
  // generation's cache is read by the fast path. `result_reader_` is null
  // when the fast path is disabled, on the first generation, or when the
  // previous cache is missing/corrupt (all identical pages then evaluate
  // normally — degrade, never miscompute).
  std::unique_ptr<ResultCacheWriter> result_writer_;
  std::unique_ptr<ResultCacheReader> result_reader_;
  // The previous cache failed validation mid-run: every identical page
  // after that evaluates. The reader stays open until the run ends, for
  // the runs lifted before the failure to load at commit.
  bool result_dropped_ = false;
  const MatcherAssignment* assignment_ = nullptr;
  // Page-evaluation workers when no shared pool is set: started by the
  // first run wider than one thread, joined when the engine is destroyed.
  std::unique_ptr<ThreadPool> owned_pool_;
};

}  // namespace delex

#endif  // DELEX_DELEX_ENGINE_H_
