#include "harness/experiment.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "baseline/plan_extractor.h"
#include "baseline/runners.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "delex/engine.h"
#include "obs/history.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "shard/sharded_engine.h"

namespace delex {

std::vector<Snapshot> GenerateSeries(const DatasetProfile& profile, int count,
                                     uint64_t seed) {
  CorpusGenerator generator(profile, seed);
  std::vector<Snapshot> series;
  series.reserve(static_cast<size_t>(count));
  series.push_back(generator.Initial());
  for (int i = 1; i < count; ++i) {
    series.push_back(generator.Evolve(series.back()));
  }
  return series;
}

namespace {

class NoReuseSolution : public Solution {
 public:
  explicit NoReuseSolution(const ProgramSpec& spec)
      : name_("No-reuse"), runner_(spec.plan) {}

  const std::string& Name() const override { return name_; }

  Result<std::vector<Tuple>> RunSnapshot(const Snapshot& current,
                                         const Snapshot* previous,
                                         RunStats* stats) override {
    (void)previous;
    return runner_.RunSnapshot(current, stats);
  }

 private:
  std::string name_;
  NoReuseRunner runner_;
};

class ShortcutSolution : public Solution {
 public:
  explicit ShortcutSolution(const ProgramSpec& spec)
      : name_("Shortcut"), runner_(spec.plan) {}

  const std::string& Name() const override { return name_; }

  Result<std::vector<Tuple>> RunSnapshot(const Snapshot& current,
                                         const Snapshot* previous,
                                         RunStats* stats) override {
    (void)previous;
    return runner_.RunSnapshot(current, stats);
  }

 private:
  std::string name_;
  ShortcutRunner runner_;
};

/// Converts the optimizer's last-choice audit into the run report's
/// "decisions" rows (invalid audits — warm-up, forced plans — leave the
/// array empty).
void FillDecisions(const Optimizer::DecisionAudit& audit,
                   obs::OptimizerReport* optimizer) {
  optimizer->decisions.clear();
  if (!audit.valid) return;
  for (size_t u = 0; u < audit.units.size(); ++u) {
    const Optimizer::DecisionAudit::Unit& unit = audit.units[u];
    obs::OptimizerReport::UnitDecision d;
    d.unit = static_cast<int>(u);
    d.winner = MatcherKindName(unit.winner);
    d.runner_up = MatcherKindName(unit.runner_up);
    d.margin_us = unit.margin_us;
    for (MatcherKind kind : kAllMatcherKinds) {
      d.candidate_us.emplace_back(MatcherKindName(kind),
                                  unit.candidate_plan_us[MatcherIndex(kind)]);
    }
    d.f = audit.f;
    d.m = audit.m;
    d.a = unit.a;
    d.l = unit.l;
    d.history_window = audit.history_window;
    d.source = audit.sampled ? "sample" : "run";
    optimizer->decisions.push_back(std::move(d));
  }
}

/// The run's cost_drift (CostDrift of its prediction against its measured
/// per-unit µs); -1 when it has no prediction or the prediction does not
/// fit the run.
double DriftOf(const std::string& name, const std::vector<double>& predicted,
               const RunStats& stats) {
  Result<double> drift = CostDrift(predicted, stats);
  if (drift.ok()) return *drift;
  DELEX_LOG(WARN) << name << ": cost drift skipped: "
                  << drift.status().ToString();
  return -1;
}

/// Shared by Cyclex (wrapped single-blackbox plan) and Delex (full plan):
/// engine + per-snapshot optimizer.
class EngineSolution : public Solution {
 public:
  EngineSolution(std::string name, xlog::PlanNodePtr plan,
                 const std::string& work_dir, DelexSolutionOptions options)
      : name_(std::move(name)),
        options_(std::move(options)),
        work_dir_(work_dir) {
    DelexEngine::Options engine_options;
    engine_options.work_dir = work_dir;
    engine_options.num_threads = options_.num_threads;
    engine_options.disable_exact_fast_path = options_.disable_exact_fast_path;
    engine_options.disable_page_fast_path = options_.disable_page_fast_path;
    engine_options.fold_unit_operators = options_.fold_unit_operators;
    engine_ = std::make_unique<DelexEngine>(std::move(plan), engine_options);
  }

  Status Prepare() {
    DELEX_RETURN_NOT_OK(engine_->Init());
    Optimizer::Options opt_options;
    opt_options.collector.sample_pages = options_.sample_pages;
    opt_options.history_snapshots = options_.history_snapshots;
    optimizer_ = std::make_unique<Optimizer>(engine_->plan(),
                                             engine_->analysis(), opt_options);
    return Status::OK();
  }

  const std::string& Name() const override { return name_; }

  Result<std::vector<Tuple>> RunSnapshot(const Snapshot& current,
                                         const Snapshot* previous,
                                         RunStats* stats) override {
    MatcherAssignment assignment =
        MatcherAssignment::Uniform(engine_->NumUnits(), MatcherKind::kDN);
    int64_t opt_us = 0;
    last_predicted_unit_us_.clear();
    last_predicted_total_us_ = -1;
    // A forced plan runs with no optimizer and no trials.
    const bool optimize =
        previous != nullptr && options_.forced_assignment.per_unit.empty();
    if (previous != nullptr && !optimize) {
      assignment = options_.forced_assignment;
    }
    if (optimize) {
      Stopwatch opt_watch;
      {
        // Only a pair with no run to learn from is sampled, on a pool as
        // wide as the engine's built for that call alone: a pool kept
        // across refreshes holds its idle workers' memory through the
        // engine run.
        std::unique_ptr<ThreadPool> pool;
        const int width = engine_->EffectiveThreads();
        if (optimizer_->NeedsSample() && width > 1) {
          pool = std::make_unique<ThreadPool>(width);
        }
        DELEX_RETURN_NOT_OK(optimizer_->ObserveSnapshotPair(
            current, *previous,
            /*seed=*/0xC0FFEE ^ static_cast<uint64_t>(engine_->generation()),
            pool.get(), !options_.disable_page_fast_path));
      }
      DELEX_ASSIGN_OR_RETURN(assignment, optimizer_->ChooseAssignment());
      opt_us = opt_watch.ElapsedMicros();
      DELEX_ASSIGN_OR_RETURN(std::vector<double> predicted,
                             optimizer_->EstimatePerUnitCost(assignment));
      RecordPrediction(std::move(predicted));
    }
    last_assignment_ = assignment;
    last_had_previous_ = previous != nullptr;
    RunStats local_stats;
    RunStats* run_stats = stats != nullptr ? stats : &local_stats;
    DELEX_ASSIGN_OR_RETURN(
        std::vector<Tuple> results,
        engine_->RunSnapshot(current, previous, assignment, run_stats,
                             optimize ? options_.sample_pages : 0));
    if (optimize) {
      // The run, trials included, plans the next refresh.
      Stopwatch observe_watch;
      optimizer_->ObserveRun(*run_stats);
      opt_us += observe_watch.ElapsedMicros();
    }
    run_stats->phases.opt_us = opt_us;
    run_stats->phases.total_us += opt_us;
    last_drift_ = DriftOf(name_, last_predicted_unit_us_, *run_stats);
    return results;
  }

  std::string LastAssignment() const override {
    return last_assignment_.ToString();
  }

  std::string HistoryDir() const override { return work_dir_; }

  void DescribeRun(obs::RunReportMeta* meta,
                   obs::OptimizerReport* optimizer) const override {
    meta->num_threads = options_.num_threads;
    meta->fast_path_enabled = !options_.disable_page_fast_path;
    meta->generation = engine_->generation();
    optimizer->has_optimizer = last_had_previous_;
    optimizer->unit_matchers.clear();
    for (MatcherKind kind : last_assignment_.per_unit) {
      optimizer->unit_matchers.emplace_back(MatcherKindName(kind));
    }
    if (!last_had_previous_) return;
    optimizer->predicted_unit_us = last_predicted_unit_us_;
    optimizer->predicted_total_us = last_predicted_total_us_;
    optimizer->cost_drift = last_drift_;
    FillDecisions(optimizer_->LastAudit(), optimizer);
  }

 private:
  void RecordPrediction(std::vector<double> predicted) {
    last_predicted_unit_us_ = std::move(predicted);
    last_predicted_total_us_ = 0;
    for (double c : last_predicted_unit_us_) last_predicted_total_us_ += c;
  }

  std::string name_;
  DelexSolutionOptions options_;
  std::string work_dir_;
  std::unique_ptr<DelexEngine> engine_;
  std::unique_ptr<Optimizer> optimizer_;
  MatcherAssignment last_assignment_;
  std::vector<double> last_predicted_unit_us_;
  double last_predicted_total_us_ = -1;
  double last_drift_ = -1;
  bool last_had_previous_ = false;
};

/// Delex over a shard::ShardedEngine: pages hash-partitioned into N
/// engine shards on one shared pool, with one optimizer PER SHARD. Each
/// shard observes its own pages of the snapshot pair, picks its own
/// assignment, and reports its own prediction error against its own
/// measured costs.
class ShardedEngineSolution : public Solution {
 public:
  ShardedEngineSolution(std::string name, xlog::PlanNodePtr plan,
                        const std::string& work_dir,
                        DelexSolutionOptions options)
      : name_(std::move(name)),
        options_(std::move(options)),
        work_dir_(work_dir) {
    shard::ShardedEngine::Options engine_options;
    engine_options.work_dir = work_dir;
    engine_options.num_shards = options_.num_shards;
    engine_options.num_threads = options_.num_threads;
    engine_options.disable_exact_fast_path = options_.disable_exact_fast_path;
    engine_options.disable_page_fast_path = options_.disable_page_fast_path;
    engine_options.fold_unit_operators = options_.fold_unit_operators;
    engine_ = std::make_unique<shard::ShardedEngine>(std::move(plan),
                                                     engine_options);
  }

  Status Prepare() {
    DELEX_RETURN_NOT_OK(engine_->Init());
    Optimizer::Options opt_options;
    opt_options.collector.sample_pages = options_.sample_pages;
    opt_options.history_snapshots = options_.history_snapshots;
    for (int k = 0; k < engine_->num_shards(); ++k) {
      optimizers_.push_back(std::make_unique<Optimizer>(
          engine_->plan(), engine_->analysis(), opt_options));
    }
    return Status::OK();
  }

  const std::string& Name() const override { return name_; }

  Result<std::vector<Tuple>> RunSnapshot(const Snapshot& current,
                                         const Snapshot* previous,
                                         RunStats* stats) override {
    const int num_shards = engine_->num_shards();
    std::vector<MatcherAssignment> assignments(
        static_cast<size_t>(num_shards),
        MatcherAssignment::Uniform(engine_->NumUnits(), MatcherKind::kDN));
    int64_t opt_us = 0;
    shard_predicted_unit_us_.assign(static_cast<size_t>(num_shards), {});
    // A forced plan runs with no optimizer and no trials.
    const bool optimize =
        previous != nullptr && options_.forced_assignment.per_unit.empty();
    if (previous != nullptr && !optimize) {
      for (MatcherAssignment& a : assignments) a = options_.forced_assignment;
    }
    if (optimize) {
      // Feed every shard's optimizer the pages its engine will actually
      // see, routed the way the engine routes them (previous versions are
      // looked up in the whole previous snapshot, as the engine does); a
      // first refresh samples on the shared pool, which is idle until the
      // engine runs.
      Stopwatch opt_watch;
      const std::vector<SnapshotView> cur_routes =
          shard::RouteSnapshot(current, num_shards);
      for (int k = 0; k < num_shards; ++k) {
        Optimizer* optimizer = optimizers_[static_cast<size_t>(k)].get();
        const uint64_t seed =
            0xC0FFEE ^ static_cast<uint64_t>(engine_->generation()) ^
            (static_cast<uint64_t>(k) * 0x9E3779B97F4A7C15ULL);
        DELEX_RETURN_NOT_OK(optimizer->ObserveSnapshotPair(
            cur_routes[static_cast<size_t>(k)], *previous, seed,
            engine_->pool(), !options_.disable_page_fast_path));
        DELEX_ASSIGN_OR_RETURN(assignments[static_cast<size_t>(k)],
                               optimizer->ChooseAssignment());
        DELEX_ASSIGN_OR_RETURN(
            shard_predicted_unit_us_[static_cast<size_t>(k)],
            optimizer->EstimatePerUnitCost(
                assignments[static_cast<size_t>(k)]));
      }
      opt_us = opt_watch.ElapsedMicros();
    }
    last_assignments_ = assignments;
    last_had_previous_ = previous != nullptr;
    shard::ShardedEngine::ShardRunStats shard_stats;
    DELEX_ASSIGN_OR_RETURN(
        std::vector<Tuple> results,
        engine_->RunSnapshot(current, previous, assignments, stats,
                             &shard_stats,
                             optimize ? options_.sample_pages : 0));
    if (optimize) {
      // Each shard's run, trials included, plans that shard's next refresh.
      Stopwatch observe_watch;
      for (size_t k = 0; k < optimizers_.size(); ++k) {
        optimizers_[k]->ObserveRun(shard_stats.per_shard[k]);
      }
      opt_us += observe_watch.ElapsedMicros();
    }
    if (stats != nullptr) {
      stats->phases.opt_us = opt_us;
      stats->phases.total_us += opt_us;
    }
    last_shard_stats_ = std::move(shard_stats);
    return results;
  }

  std::string LastAssignment() const override {
    if (last_assignments_.empty()) return "";
    // One string when every shard picked the same plan (the common case);
    // otherwise all of them, '|'-separated in shard order.
    bool uniform = true;
    for (const MatcherAssignment& a : last_assignments_) {
      if (a.per_unit != last_assignments_[0].per_unit) {
        uniform = false;
        break;
      }
    }
    if (uniform) return last_assignments_[0].ToString();
    std::string joined;
    for (const MatcherAssignment& a : last_assignments_) {
      if (!joined.empty()) joined += "|";
      joined += a.ToString();
    }
    return joined;
  }

  std::string HistoryDir() const override { return work_dir_; }

  void DescribeRun(obs::RunReportMeta* meta,
                   obs::OptimizerReport* optimizer) const override {
    meta->num_threads = options_.num_threads;
    meta->fast_path_enabled = !options_.disable_page_fast_path;
    meta->num_shards = engine_->num_shards();
    meta->generation = engine_->generation();
    meta->shards.clear();
    // Each shard's drift compares its own prediction with its own run; the
    // merged drift is their mean.
    double drift_sum = 0;
    int drift_count = 0;
    for (size_t k = 0; k < last_shard_stats_.per_shard.size(); ++k) {
      const RunStats& s = last_shard_stats_.per_shard[k];
      obs::RunReportMeta::ShardSummary summary;
      summary.shard = static_cast<int>(k);
      summary.pages = s.pages;
      summary.pages_identical = s.pages_identical;
      summary.result_tuples = s.result_tuples;
      summary.total_us = s.phases.total_us;
      summary.reuse_corrupt_drops = s.reuse_corrupt_drops;
      if (k < last_assignments_.size() && last_had_previous_) {
        summary.assignment = last_assignments_[k].ToString();
      }
      if (k < shard_predicted_unit_us_.size()) {
        summary.cost_drift = DriftOf(name_, shard_predicted_unit_us_[k], s);
      }
      if (summary.cost_drift >= 0) {
        drift_sum += summary.cost_drift;
        ++drift_count;
      }
      meta->shards.push_back(summary);
    }
    optimizer->has_optimizer = last_had_previous_;
    if (last_assignments_.empty()) return;
    // Per-unit matchers from shard 0 (shards usually agree; LastAssignment
    // surfaces disagreement); predicted µs summed across shards so the
    // total still compares against the merged measured phases.
    optimizer->unit_matchers.clear();
    for (MatcherKind kind : last_assignments_[0].per_unit) {
      optimizer->unit_matchers.emplace_back(MatcherKindName(kind));
    }
    if (!last_had_previous_) return;
    optimizer->predicted_unit_us.clear();
    optimizer->predicted_total_us = -1;
    for (const std::vector<double>& predicted : shard_predicted_unit_us_) {
      if (predicted.empty()) continue;
      optimizer->predicted_unit_us.resize(predicted.size(), 0);
      if (optimizer->predicted_total_us < 0) optimizer->predicted_total_us = 0;
      for (size_t u = 0; u < predicted.size(); ++u) {
        optimizer->predicted_unit_us[u] += predicted[u];
        optimizer->predicted_total_us += predicted[u];
      }
    }
    optimizer->cost_drift = drift_count > 0 ? drift_sum / drift_count : -1;
    // Decisions from shard 0's audit, matching the unit_matchers
    // convention above; per-shard divergence shows in meta->shards.
    FillDecisions(optimizers_[0]->LastAudit(), optimizer);
  }

 private:
  std::string name_;
  DelexSolutionOptions options_;
  std::string work_dir_;
  std::unique_ptr<shard::ShardedEngine> engine_;
  std::vector<std::unique_ptr<Optimizer>> optimizers_;  // one per shard
  std::vector<MatcherAssignment> last_assignments_;
  shard::ShardedEngine::ShardRunStats last_shard_stats_;
  std::vector<std::vector<double>> shard_predicted_unit_us_;  // per shard
  bool last_had_previous_ = false;
};

}  // namespace

std::unique_ptr<Solution> MakeNoReuseSolution(const ProgramSpec& spec) {
  return std::make_unique<NoReuseSolution>(spec);
}

std::unique_ptr<Solution> MakeShortcutSolution(const ProgramSpec& spec) {
  return std::make_unique<ShortcutSolution>(spec);
}

std::unique_ptr<Solution> MakeCyclexSolution(const ProgramSpec& spec,
                                             const std::string& work_dir,
                                             int num_threads) {
  xlog::PlanNodePtr wrapped =
      WrapWholeProgram(spec.plan, "whole[" + spec.name + "]", spec.whole_alpha,
                       spec.whole_beta);
  DelexSolutionOptions options;
  options.num_threads = num_threads;
  auto solution = std::make_unique<EngineSolution>(
      "Cyclex", std::move(wrapped), work_dir, std::move(options));
  Status st = solution->Prepare();
  DELEX_CHECK_MSG(st.ok(), st.ToString());
  return solution;
}

std::unique_ptr<Solution> MakeDelexSolution(const ProgramSpec& spec,
                                            const std::string& work_dir,
                                            DelexSolutionOptions options) {
  // Same solution name either way: sharding is an execution strategy, not
  // a different contender — results are identical, only scaling differs.
  if (options.num_shards > 1) {
    auto solution = std::make_unique<ShardedEngineSolution>(
        "Delex", spec.plan, work_dir, std::move(options));
    Status st = solution->Prepare();
    DELEX_CHECK_MSG(st.ok(), st.ToString());
    return solution;
  }
  auto solution = std::make_unique<EngineSolution>("Delex", spec.plan,
                                                   work_dir, std::move(options));
  Status st = solution->Prepare();
  DELEX_CHECK_MSG(st.ok(), st.ToString());
  return solution;
}

namespace {

std::string& StatsJsonPathOverride() {
  static std::string path;
  return path;
}

}  // namespace

void SetStatsJsonPath(const std::string& path) {
  StatsJsonPathOverride() = path;
}

std::string StatsJsonPath() {
  if (!StatsJsonPathOverride().empty()) return StatsJsonPathOverride();
  const char* env = std::getenv("DELEX_STATS_JSON");
  return env != nullptr ? std::string(env) : std::string();
}

Result<SeriesRun> RunSeries(Solution* solution,
                            const std::vector<Snapshot>& series,
                            bool keep_results, const std::string& tag) {
  SeriesRun run;
  run.solution = solution->Name();
  obs::RunReportWriter report;
  const std::string report_path = StatsJsonPath();
  if (!report_path.empty()) {
    DELEX_RETURN_NOT_OK(report.Open(report_path));
  }
  const std::string history_dir = solution->HistoryDir();
  const bool write_history =
      !history_dir.empty() && obs::HistoryEnabledFromEnv();
  obs::HistoryStore::Options history_options;
  history_options.retain_gens = obs::HistoryRetainFromEnv();
  obs::HistoryStore history(history_dir + "/" + obs::kHistoryFileName,
                            history_options);
  for (size_t i = 0; i < series.size(); ++i) {
    const Snapshot* previous = i == 0 ? nullptr : &series[i - 1];
    RunStats stats;
    Stopwatch watch;
    DELEX_ASSIGN_OR_RETURN(
        std::vector<Tuple> results,
        solution->RunSnapshot(series[i], previous, &stats));
    double seconds = watch.ElapsedSeconds();
    obs::RunReportMeta meta;
    meta.solution = solution->Name();
    meta.tag = tag;
    meta.snapshot_index = static_cast<int>(i) + 1;
    meta.warmup = i == 0;
    meta.assignment = solution->LastAssignment();
    obs::OptimizerReport optimizer;
    solution->DescribeRun(&meta, &optimizer);
    // One run record, two sinks: the stats-JSON file takes the line bare,
    // and the solution's work dir keeps it framed as the generation's
    // history record. A failed history append degrades to a WARN —
    // telemetry must never fail the run it describes.
    const bool record_history = write_history && meta.generation >= 0;
    if (report.is_open() || record_history) {
      const std::string line = obs::RunReportLine(meta, stats, optimizer);
      if (report.is_open()) DELEX_RETURN_NOT_OK(report.Append(line));
      if (record_history) {
        Status appended = history.Append(line);
        if (!appended.ok()) {
          DELEX_LOG(WARN) << "history append: " << appended.ToString();
        }
      }
    }
    if (i == 0) continue;  // warm-up snapshot, not reported (as in §8)
    run.seconds.push_back(seconds);
    run.stats.push_back(stats);
    run.assignments.push_back(std::move(meta.assignment));
    if (keep_results) run.results.push_back(Canonicalize(std::move(results)));
  }
  if (report.is_open()) DELEX_RETURN_NOT_OK(report.Close());
  // Degradation the operator should see without scraping report files:
  // trace-buffer overflow means spans were silently lost. WARN once per
  // process — the count is cumulative, repeating it every series is noise.
  {
    const int64_t dropped = obs::TraceRecorder::Global().DroppedEventCount();
    static std::atomic<bool> warned_dropped{false};
    if (dropped > 0 && !warned_dropped.exchange(true)) {
      DELEX_LOG(WARN) << "trace recorder dropped " << dropped
                      << " event(s); raise the trace buffer or narrow the "
                         "traced window";
    }
  }
  return run;
}

std::vector<Tuple> Canonicalize(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end(), TupleLess);
  return tuples;
}

bool SameResults(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (TupleLess(a[i], b[i]) || TupleLess(b[i], a[i])) return false;
  }
  return true;
}

}  // namespace delex
