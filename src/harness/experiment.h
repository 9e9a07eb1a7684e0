#ifndef DELEX_HARNESS_EXPERIMENT_H_
#define DELEX_HARNESS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "delex/run_stats.h"
#include "harness/programs.h"
#include "obs/run_report.h"
#include "storage/snapshot.h"

namespace delex {

/// \brief Generates `count` consecutive snapshots of a synthetic corpus.
std::vector<Snapshot> GenerateSeries(const DatasetProfile& profile, int count,
                                     uint64_t seed);

/// \brief A solution under test: No-reuse, Shortcut, Cyclex, or Delex
/// (§8's four contenders), behind one interface so the experiment driver
/// and the correctness tests treat them uniformly.
class Solution {
 public:
  virtual ~Solution() = default;
  virtual const std::string& Name() const = 0;

  /// Processes one snapshot; `previous` is null for the first. Returns
  /// did-prefixed result tuples.
  virtual Result<std::vector<Tuple>> RunSnapshot(const Snapshot& current,
                                                 const Snapshot* previous,
                                                 RunStats* stats) = 0;

  /// The matcher assignment used by the most recent RunSnapshot, as a
  /// display string ("ST,RU,DN,..."); empty for solutions without plans.
  /// RunSeries records it as the run report's top-level "assignment".
  virtual std::string LastAssignment() const { return ""; }

  /// Fills run-report metadata describing the most recent RunSnapshot:
  /// execution environment into `meta` (threads, fast path) and, for
  /// engine-backed solutions, the executed per-unit matchers (warm-up
  /// included) plus the cost model's predicted µs into `optimizer`.
  /// Baselines leave the defaults.
  virtual void DescribeRun(obs::RunReportMeta* meta,
                           obs::OptimizerReport* optimizer) const {
    (void)meta;
    (void)optimizer;
  }

  /// The work directory where this solution keeps its generation state —
  /// RunSeries appends `history.jsonl` records there after every run.
  /// Empty (the default) for stateless baselines: no history is written.
  virtual std::string HistoryDir() const { return ""; }
};

/// \brief Re-extracts everything from scratch each snapshot.
std::unique_ptr<Solution> MakeNoReuseSolution(const ProgramSpec& spec);

/// \brief Copies results of byte-identical pages, re-extracts the rest.
std::unique_ptr<Solution> MakeShortcutSolution(const ProgramSpec& spec);

/// \brief Treats the whole program as a single IE blackbox with the
/// spec's program-level (α, β); optimizes the single matcher choice per
/// snapshot with the §6 machinery (which degenerates to Cyclex's).
/// `num_threads` follows DelexEngine::Options::num_threads semantics.
std::unique_ptr<Solution> MakeCyclexSolution(const ProgramSpec& spec,
                                             const std::string& work_dir,
                                             int num_threads = 1);

/// \brief Options for the Delex solution.
struct DelexSolutionOptions {
  /// Worker threads for page evaluation (DelexEngine::Options::num_threads):
  /// 1 = the same page pipeline with evaluation inline on the calling
  /// thread, 0 = one per hardware thread. Results and reuse files are
  /// identical at every setting; only wall clock changes.
  int num_threads = 1;
  /// Fig 13a's knob: the pages each optimized run trials (the matchers
  /// its plan did not run, over the same regions), whose statistics plan
  /// the next refresh; on the first refresh, with no run to learn from,
  /// the pages sampled instead. Forced plans trial nothing.
  int sample_pages = 6;
  /// History window (Fig 13b).
  int history_snapshots = 3;
  /// If non-empty, skip the optimizer and force this assignment on every
  /// snapshot (used by Fig 12's exhaustive plan runs and the ablations).
  MatcherAssignment forced_assignment;
  /// Disable the exact-region fast path (ablation).
  bool disable_exact_fast_path = false;
  /// Disable the whole-page identical fast path (byte-identical pages then
  /// evaluate normally; equivalence tests and ablations).
  bool disable_page_fast_path = false;
  /// Disable σ/π folding — reuse at bare-blackbox level (ablation, §4).
  bool fold_unit_operators = true;
  /// Hash-partition pages into this many engine shards sharing one worker
  /// pool (shard::ShardedEngine; DELEX_SHARDS). Each shard gets its own
  /// optimizer and statistics, and keeps its reuse files in its own
  /// `shard<K>/` dir, so corrupting one shard's state degrades only that
  /// shard. Merged results are byte-identical to num_shards = 1 at every
  /// setting.
  int num_shards = 1;
};

/// \brief Full Delex: per-unit reuse with cost-based matcher assignment.
std::unique_ptr<Solution> MakeDelexSolution(
    const ProgramSpec& spec, const std::string& work_dir,
    DelexSolutionOptions options = DelexSolutionOptions());

/// \brief Per-snapshot record of one solution over a series.
struct SeriesRun {
  std::string solution;
  std::vector<double> seconds;            // per consecutive snapshot (2..n)
  std::vector<RunStats> stats;            // aligned with `seconds`
  std::vector<std::string> assignments;   // chosen plan per snapshot (if any)
  std::vector<std::vector<Tuple>> results;  // optional, kept when requested

  double TotalSeconds() const {
    double total = 0;
    for (double s : seconds) total += s;
    return total;
  }
};

/// \brief Runs a solution across a whole series. The first snapshot is a
/// warm-up (capture only) and is not recorded — matching §8, which plots
/// consecutive snapshots 2..15. Set `keep_results` for correctness
/// comparisons.
///
/// When a stats-JSON path is configured (SetStatsJsonPath — the
/// --stats-json flag — or the DELEX_STATS_JSON env var), every snapshot
/// run, warm-up included, appends one obs::RunReportLine to that file, so
/// any bench or example built on RunSeries produces machine-readable run
/// reports for free. `tag` labels the lines (bench/program name). The
/// same line, framed, is the generation's record in the history store of
/// an engine-backed solution (HistoryDir, obs/history.h).
Result<SeriesRun> RunSeries(Solution* solution,
                            const std::vector<Snapshot>& series,
                            bool keep_results = false,
                            const std::string& tag = "");

/// \brief Sets the run-report JSONL path programmatically (the
/// --stats-json flag). Takes precedence over DELEX_STATS_JSON; an empty
/// string falls back to the env var.
void SetStatsJsonPath(const std::string& path);

/// \brief The effective run-report path: SetStatsJsonPath if set, else
/// DELEX_STATS_JSON, else empty (reports disabled).
std::string StatsJsonPath();

/// \brief Canonical (sorted) form of a result multiset for equality
/// comparisons across solutions (Theorem 1 checks).
std::vector<Tuple> Canonicalize(std::vector<Tuple> tuples);

/// \brief True iff two result multisets are identical.
bool SameResults(const std::vector<Tuple>& a, const std::vector<Tuple>& b);

}  // namespace delex

#endif  // DELEX_HARNESS_EXPERIMENT_H_
