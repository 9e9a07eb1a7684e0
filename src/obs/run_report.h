#ifndef DELEX_OBS_RUN_REPORT_H_
#define DELEX_OBS_RUN_REPORT_H_

// Versioned, machine-readable per-snapshot run report (JSONL: one JSON
// object per line, one line per snapshot run). This is the one run
// record: it snapshots RunStats (per-unit counters and phase timers),
// IoStats, the optimizer's decisions (chosen matcher per IE unit,
// predicted cost vs. measured microseconds — the Figure 11/12
// decomposition from a single file), fast-path hit counters, thread-count
// metadata, and the process counter registry.
//
// Producers: RunSeries (src/harness) builds one line per snapshot run and
// hands it to two sinks — bare to the --stats-json / DELEX_STATS_JSON
// file, and framed as the body of the generation-history record in an
// engine's work dir (obs/history.h). Tests build lines directly.
//
// Schema line shape (keys stable; additions bump the version):
//   {"schema_version":9,"solution":"Delex","tag":"fig11-talk",
//    "snapshot":2,"warmup":false,"threads":4,"fast_path":true,
//    "histograms":true,"num_shards":1,"generation":2,
//    "assignment":"ST,RU",                          // v9
//    "pages":N,"pages_with_previous":N,"pages_identical":N,
//    "result_tuples":N,"raw_bytes_copied":N,"records_decoded_skipped":N,
//    "identical_runs":N,"reader":{"busy_us":..,"wait_us":..},  // v8
//    "phases":{"match_us":..,"extract_us":..,"copy_us":..,"opt_us":..,
//              "capture_us":..,"total_us":..,"others_us":..,
//              "phase_drift_us":..},
//    "io":{"reuse_read":{"bytes":..,"records":..},
//          "reuse_write":{"bytes":..,"records":..}},
//    "fast_path_counters":{"demote_result_cache":N,
//                          "demote_missing_group":N,
//                          "decode_copy_groups":N},
//    "latency":{"page_eval_us":{"count":..,"mean":..,"p50":..,"p90":..,
//                               "p99":..,"max":..},
//               "match_ud_us":{...},"match_st_us":{...},
//               "match_ru_us":{...}},               // v2: distributions
//    "trace":{"recording":false,"dropped_events":N},
//    "optimizer":{"assignment":"ST,RU","opt_us":..,
//                 "predicted_total_us":..},        // omitted w/o optimizer
//    "units":[{"unit":0,"matcher":"ST","predicted_us":..,"actual_us":..,
//              "match_us":..,"extract_us":..,"copy_us":..,"capture_us":..,
//              "input_tuples":..,"output_tuples":..,"copied_tuples":..,
//              "extracted_tuples":..,"matcher_calls":..,
//              "exact_region_hits":..,"chars_extracted":..,
//              "trial_pages":..,"trial_us":..,          // v10
//              "extract_count":..,"extract_p50_us":..,"extract_p90_us":..,
//              "extract_p99_us":..,"extract_max_us":..}],
//    "counters":{"engine.fast_path.demote_result_cache":0,...}}
//
// v1 → v2: added "histograms" meta flag, "fast_path_counters" (per-run
// demotion/decode-copy tallies), "latency" (page-eval and per-matcher
// p50/p90/p99/max from the run's merged histogram shards), "trace"
// (recorder state + dropped-event count), and per-unit extract-latency
// percentiles. Latency summaries are present only when histograms were
// enabled for the run.
//
// v2 → v3: the "optimizer" block gains the self-tuning cost-model state:
// "learning" (coefficient learning enabled), "cost_drift" (mean relative
// predicted-vs-measured per-unit error of this run, pre-update; omitted
// before the first feedback), and "coeffs" (per-matcher learned
// calibration rows {"matcher","gain","bias","drift","samples"}; omitted
// until a kind has samples).
//
// v3 → v4: sharded execution. The meta block gains "num_shards" (always
// present; 1 for unsharded runs), and when num_shards > 1 a "shards"
// array with one summary per shard:
//   {"shard":K,"pages":N,"pages_identical":N,"result_tuples":N,
//    "total_us":..,"reuse_corrupt_drops":N}
// The top-level stats blocks then describe the MERGED view (counters
// summed, phase components summed, total_us = sharded wall clock,
// histograms folded across shards).
//
// v4 → v5: explainability (observability layer 3). The meta block gains
// "generation" (the engine's completed-run counter; omitted for
// engine-less baselines), shard summaries gain "assignment" and
// "cost_drift" (each shard's own plan and prediction error), and the
// optimizer block gains a "decisions" array — the optimizer's audit of
// every per-unit matcher choice:
//   {"unit":0,"winner":"ST","runner_up":"UD","margin_us":..,
//    "candidates":{"DN":..,"UD":..,"ST":..,"RU":..},
//    "inputs":{"f":..,"m":..,"a":..,"l":..,"history":..}}
// Candidates are whole-plan estimated µs with only that unit's matcher
// swapped; margin_us = runner-up − winner (negative means the greedy
// search accepted a locally suboptimal unit for a globally better plan).
// The "inputs" block records which statistics fed the estimate, so every
// matcher switch across generations is attributable from the reports
// alone.
//
// v5 → v6: resource observability (layer 4). Every line gains a
// "resources" block sampled at report time:
//   {"rss_bytes":..,"vm_bytes":..,"peak_rss_bytes":..,
//    "tracked_bytes":..,"tracked_peak_bytes":..,
//    "subsystems":[{"tag":"snapshot","current_bytes":..,"peak_bytes":..},
//                  ...],                      // one row per MemTag
//    "profile":{"total_samples":N,"lost_samples":N,
//               "top_spans":[{"span":"eval_page","self_samples":N},...]}}
// The "profile" sub-block appears only when the span profiler observed at
// least one tick (DELEX_PROFILE); top_spans is self-time (innermost open
// span per tick), largest first, at most 10 rows.
//
// v6 → v7: the learned cost-coefficient layer is gone. The optimizer block
// drops "learning" and "coeffs", and decision "inputs" drop "gain",
// "bias" and "samples"; "cost_drift" stays and now measures the analytic
// model. Readers ignore those keys in older lines.
//
// v7 → v8: the page pipeline's reader stage. Every line gains
// "identical_runs" (runs of identical pages relocated as one pipeline
// entry each) and "reader":{"busy_us":..,"wait_us":..} (the reader
// thread's wall clock, busy and blocked, summed across shards).
//
// v8 → v9: one run record. The line is also the body of every
// history.jsonl record, which used to have its own shape. The meta block
// gains "assignment", the executed plan as Solution::LastAssignment gives
// it ("ST,RU"; per-shard plans '|'-joined when the shards disagree;
// omitted for plan-less baselines), and warm-up lines now name each
// unit's executed "matcher" (the uniform plan the warm-up ran).
//
// v9 → v10: plans from the run that already happened. A decision's
// "inputs" block gains "source": "sample" when the statistics came from a
// sample of this snapshot pair (an engine's first refresh in a process),
// "run" when they came from the runs before it. Its "f" and "m" now count
// the pages the engine evaluates (not byte-identical to their previous
// version), not every page. Each unit gains "trial_pages" and "trial_us",
// its trial matching of the run (the matchers its plan did not run, on
// the run's trial pages). Readers print "-" for a pre-v10 "source".

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "delex/run_stats.h"

namespace delex {
namespace obs {

inline constexpr int kRunReportSchemaVersion = 10;

/// \brief Run identity and execution-environment metadata for one line.
struct RunReportMeta {
  std::string solution;    ///< "Delex", "Cyclex", "No-reuse", ...
  std::string tag;         ///< free-form context (bench/program name)
  int snapshot_index = 0;  ///< 1-based position in the series
  bool warmup = false;     ///< first snapshot: capture only, no reuse
  int num_threads = 1;     ///< engine worker threads (0 = hardware)
  bool fast_path_enabled = true;
  /// Whether latency histograms were recording (DELEX_HISTOGRAMS); the
  /// "latency" block and per-unit percentiles are emitted only when true.
  bool histograms_enabled = true;

  /// Engine shards the run was partitioned into (v4; 1 = unsharded).
  int num_shards = 1;

  /// Engine generation completed by this run (v5); < 0 for engine-less
  /// baselines, which omit the field.
  int generation = -1;

  /// The executed plan, Solution::LastAssignment (v9); empty for
  /// plan-less baselines, which omit the field.
  std::string assignment;

  /// Per-shard rollup emitted as the "shards" array when num_shards > 1
  /// (v4). The top-level stats blocks carry the merged view.
  struct ShardSummary {
    int shard = 0;
    int64_t pages = 0;
    int64_t pages_identical = 0;
    int64_t result_tuples = 0;
    int64_t total_us = 0;  ///< shard wall clock (driver thread)
    int64_t reuse_corrupt_drops = 0;
    /// This shard's own chosen plan and prediction error (v5; each shard
    /// runs its own optimizer). Empty / negative when unavailable.
    std::string assignment;
    double cost_drift = -1;
  };
  std::vector<ShardSummary> shards;
};

/// \brief The optimizer's decisions for one run, when a plan was chosen.
struct OptimizerReport {
  /// A plan was chosen for this run: engine-backed and past the warm-up.
  bool has_optimizer = false;
  /// Executed matcher name per IE unit ("DN"/"UD"/"ST"/"RU"); filled for
  /// every engine-backed run, warm-up included.
  std::vector<std::string> unit_matchers;
  /// Cost-model estimate per unit (µs), aligned with unit_matchers;
  /// empty when no statistics were available (warm-up, forced plans).
  std::vector<double> predicted_unit_us;
  /// Cost-model estimate for the whole plan (µs); < 0 when unavailable.
  double predicted_total_us = -1;

  /// Mean relative predicted-vs-measured per-unit error of this run
  /// (CostDrift); < 0 when the run had no prediction (v3).
  double cost_drift = -1;

  /// One audited matcher decision per IE unit (v5): the per-candidate
  /// whole-plan estimates with only this unit's matcher swapped, the
  /// winner, the margin to the best alternative, and the statistics that
  /// fed the estimate. Empty on warm-up runs and forced plans.
  struct UnitDecision {
    int unit = 0;
    std::string winner;     ///< "DN"/"UD"/"ST"/"RU"
    std::string runner_up;  ///< best alternative matcher
    /// Runner-up plan cost − winner plan cost (µs). Negative when the
    /// greedy search kept a locally suboptimal unit choice.
    double margin_us = 0;
    /// (matcher name, estimated whole-plan µs) for every candidate.
    std::vector<std::pair<std::string, double>> candidate_us;
    // Statistics inputs: snapshot level (f, m, over the evaluated pages)
    // and unit level (a, l).
    double f = 0, m = 0, a = 0, l = 0;
    int history_window = 0;  ///< observations in the averaged stats
    /// Where the statistics came from (v10): "sample" (this pair was
    /// sampled) or "run" (the runs before it); empty before v10.
    std::string source;
  };
  std::vector<UnitDecision> decisions;
};

/// \brief Builds one JSONL line (no trailing newline).
std::string RunReportLine(const RunReportMeta& meta, const RunStats& stats,
                          const OptimizerReport& optimizer);

/// \brief Appends run-report lines to a JSONL file, bare.
class RunReportWriter {
 public:
  RunReportWriter() = default;
  ~RunReportWriter();

  RunReportWriter(const RunReportWriter&) = delete;
  RunReportWriter& operator=(const RunReportWriter&) = delete;

  /// Opens `path` for appending (created if absent) — append so several
  /// solutions and series in one process share a report file.
  Status Open(const std::string& path);

  /// Writes `line` (a RunReportLine) plus a newline and flushes it.
  Status Append(std::string_view line);

  Status Close();

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

}  // namespace obs
}  // namespace delex

#endif  // DELEX_OBS_RUN_REPORT_H_
