#ifndef DELEX_DELEX_RUN_STATS_H_
#define DELEX_DELEX_RUN_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "matcher/matcher.h"
#include "obs/histogram.h"
#include "storage/io_stats.h"

namespace delex {

/// \brief Matcher choice per IE unit — the paper's "IE plan" (§6.1).
struct MatcherAssignment {
  std::vector<MatcherKind> per_unit;

  static MatcherAssignment Uniform(size_t num_units, MatcherKind kind) {
    MatcherAssignment a;
    a.per_unit.assign(num_units, kind);
    return a;
  }

  std::string ToString() const {
    std::string out;
    for (size_t i = 0; i < per_unit.size(); ++i) {
      if (i > 0) out += ",";
      out += MatcherKindName(per_unit[i]);
    }
    return out;
  }

  bool operator==(const MatcherAssignment& other) const = default;
};

/// \brief Wall-clock decomposition of one snapshot run — the categories of
/// Figure 11 (Match / Extraction / Copy / Opt / Others).
struct PhaseBreakdown {
  int64_t match_us = 0;
  int64_t extract_us = 0;
  int64_t copy_us = 0;
  int64_t opt_us = 0;
  int64_t capture_us = 0;  ///< reuse-file writes (folded into Others in Fig 11)
  int64_t total_us = 0;    ///< end-to-end wall clock

  /// Overshoot of the accounted phase time past total_us (timer drift:
  /// per-phase timers merged from concurrent page shards can sum past the
  /// single wall clock). Recorded by FinalizeDrift — OthersUs then clamps
  /// to 0 without losing the signal; the run report surfaces it.
  int64_t phase_drift_us = 0;

  int64_t OthersUs() const {
    int64_t accounted = match_us + extract_us + copy_us + opt_us + capture_us;
    return total_us > accounted ? total_us - accounted : 0;
  }

  /// Call once after total_us and the component timers are final.
  void FinalizeDrift() {
    int64_t accounted = match_us + extract_us + copy_us + opt_us + capture_us;
    phase_drift_us = accounted > total_us ? accounted - total_us : 0;
  }

  PhaseBreakdown& operator+=(const PhaseBreakdown& other) {
    match_us += other.match_us;
    extract_us += other.extract_us;
    copy_us += other.copy_us;
    opt_us += other.opt_us;
    capture_us += other.capture_us;
    total_us += other.total_us;
    phase_drift_us += other.phase_drift_us;
    return *this;
  }
};

/// \brief One matcher kind's work over matched input regions (regions of a
/// page with a previous version that had old regions to match against):
/// the counts the cost model's ĝ, ĥ, ŝ and match µs per character are
/// taken from.
struct MatchTally {
  int64_t inputs = 0;          ///< matched input regions
  int64_t chars = 0;           ///< their total length
  int64_t leftover_chars = 0;  ///< extraction-region chars they left
  int64_t copy_regions = 0;    ///< copy regions derived for them
  int64_t calls = 0;           ///< Matcher::Match calls
  int64_t us = 0;              ///< matching µs

  MatchTally& operator+=(const MatchTally& other) {
    inputs += other.inputs;
    chars += other.chars;
    leftover_chars += other.leftover_chars;
    copy_regions += other.copy_regions;
    calls += other.calls;
    us += other.us;
    return *this;
  }
};

/// \brief Per-unit counters for one snapshot run.
///
/// Under parallel execution every page task accumulates into its own
/// private shard (inside a per-page RunStats), merged into the run's
/// stats by RunStats::MergeFrom once the page is done — per-page code
/// never touches engine-global counters. All phase timers, including
/// capture, live here; RunStats::PhaseBreakdown totals are derived from
/// the merged shards.
struct UnitRunStats {
  int64_t input_tuples = 0;
  int64_t output_tuples = 0;
  int64_t copied_tuples = 0;
  int64_t extracted_tuples = 0;
  int64_t matcher_calls = 0;
  int64_t exact_region_hits = 0;
  int64_t chars_extracted = 0;  ///< total length of extraction regions run
  int64_t input_chars = 0;      ///< total length of the input regions
  int64_t match_us = 0;
  int64_t extract_us = 0;
  int64_t copy_us = 0;
  int64_t capture_us = 0;  ///< reuse-record buffering + ordered write-back

  /// The run's trial pages (DelexEngine::RunSnapshot): per matcher kind,
  /// indexed by MatcherKind, what DN, UD and ST make of this unit's
  /// matched regions there — the plan's own matcher from its own work,
  /// the others from TrialMatch — so every kind is priced on the same
  /// pages by the same clock (matching, tiling and derivation of the
  /// regions that are not exact hits). `trial_us` is the time the trials
  /// added; neither it nor the tallies' µs are in match_us.
  int64_t trial_pages = 0;
  int64_t trial_us = 0;
  std::array<MatchTally, kNumMatcherKinds> trials = {};

  /// Per-blackbox-invocation extract latency (one sample per
  /// extractor.Extract call) — extract_us only gives the sum.
  obs::LocalHistogram extract_hist;

  UnitRunStats& operator+=(const UnitRunStats& other) {
    input_tuples += other.input_tuples;
    output_tuples += other.output_tuples;
    copied_tuples += other.copied_tuples;
    extracted_tuples += other.extracted_tuples;
    matcher_calls += other.matcher_calls;
    exact_region_hits += other.exact_region_hits;
    chars_extracted += other.chars_extracted;
    input_chars += other.input_chars;
    match_us += other.match_us;
    extract_us += other.extract_us;
    copy_us += other.copy_us;
    capture_us += other.capture_us;
    trial_pages += other.trial_pages;
    trial_us += other.trial_us;
    for (size_t k = 0; k < trials.size(); ++k) trials[k] += other.trials[k];
    extract_hist.MergeFrom(other.extract_hist);
    return *this;
  }
};

/// \brief Aggregate statistics of one snapshot run.
struct RunStats {
  PhaseBreakdown phases;
  IoStats reuse_read_io;
  IoStats reuse_write_io;
  std::vector<UnitRunStats> units;
  int64_t pages = 0;
  int64_t pages_with_previous = 0;
  int64_t result_tuples = 0;

  /// Pages whose content was byte-identical to their previous version and
  /// whose reuse records + result rows were taken wholesale from the last
  /// generation (the whole-page fast path — no EvalPage).
  int64_t pages_identical = 0;
  /// Framed reuse/result bytes relocated verbatim (zero decode, zero
  /// re-encode) by the fast path's raw passthrough.
  int64_t raw_bytes_copied = 0;
  /// Previous-generation reuse records (inputs + outputs) the fast path
  /// relocated without ever decoding them.
  int64_t records_decoded_skipped = 0;
  /// Runs of consecutive identical pages the fast path relocated, each
  /// one pipeline entry: one ring slot, one stats shard, one commit.
  int64_t identical_runs = 0;

  /// The page pipeline's reader stage (the thread that calls RunSnapshot),
  /// in wall-clock time: busy lifting runs, prefetching, committing what it
  /// drains and retiring entries (and, at width 1, classifying and
  /// evaluating pages inline); waiting on the classify pass, the ring, the
  /// task window and the final wait. These are the reader stages of the
  /// run's wall-clock stage breakdown; summed across shards.
  int64_t reader_busy_us = 0;
  int64_t reader_wait_us = 0;

  /// Fast-path degradations this run (the global metrics counters track
  /// the same events process-wide; these are the per-run view the run
  /// report emits). Demotions fall back from the whole-page fast path to
  /// a normal EvalPage; decode_copy_groups counts group-index rebuilds.
  int64_t fast_path_demote_result_cache = 0;
  int64_t fast_path_demote_missing_group = 0;
  int64_t fast_path_decode_copy_groups = 0;

  /// Previous-generation artifacts (a unit's reuse files or the result
  /// cache) dropped mid-run because their bytes failed validation. Each
  /// drop degrades the affected pages to clean re-extraction — results
  /// stay correct, reuse is lost — so a nonzero value means the work dir
  /// was corrupted (or truncated) between runs.
  int64_t reuse_corrupt_drops = 0;

  /// Latency distributions, observability layer 2. Each per-page shard
  /// records into its own histograms (single writer, lock-free); the
  /// MergeFrom below folds them. Gated on obs::HistogramsEnabled().
  obs::LocalHistogram page_eval_hist;  ///< one sample per EvalPage call
  /// One sample per Matcher::Match call, indexed by MatcherKind (DN never
  /// calls Match, so its slot stays empty).
  std::array<obs::LocalHistogram, kNumMatcherKinds> match_hist;

  /// Folds a per-page shard into this run's stats (unit counters summed
  /// element-wise; `units` grows to cover the shard). Phase totals are
  /// *not* touched — the engine derives them from the merged unit shards
  /// at the end of the run.
  void MergeFrom(const RunStats& other) {
    if (units.size() < other.units.size()) units.resize(other.units.size());
    for (size_t i = 0; i < other.units.size(); ++i) units[i] += other.units[i];
    reuse_read_io += other.reuse_read_io;
    reuse_write_io += other.reuse_write_io;
    pages += other.pages;
    pages_with_previous += other.pages_with_previous;
    result_tuples += other.result_tuples;
    pages_identical += other.pages_identical;
    raw_bytes_copied += other.raw_bytes_copied;
    records_decoded_skipped += other.records_decoded_skipped;
    identical_runs += other.identical_runs;
    reader_busy_us += other.reader_busy_us;
    reader_wait_us += other.reader_wait_us;
    fast_path_demote_result_cache += other.fast_path_demote_result_cache;
    fast_path_demote_missing_group += other.fast_path_demote_missing_group;
    fast_path_decode_copy_groups += other.fast_path_decode_copy_groups;
    reuse_corrupt_drops += other.reuse_corrupt_drops;
    page_eval_hist.MergeFrom(other.page_eval_hist);
    for (size_t k = 0; k < match_hist.size(); ++k) {
      match_hist[k].MergeFrom(other.match_hist[k]);
    }
  }
};

}  // namespace delex

#endif  // DELEX_DELEX_RUN_STATS_H_
