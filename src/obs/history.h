#ifndef DELEX_OBS_HISTORY_H_
#define DELEX_OBS_HISTORY_H_

// Generation-history store — observability layer 3 (memory across
// generations). Run reports answer "what happened in this run"; the
// history store answers "what changed across generations": one
// checksummed record per completed generation, appended to
// `work_dir/history.jsonl` at the end of every engine-backed run.
//
// The record body is the generation's run-report line (obs/run_report.h,
// schema v9 and later): RunSeries builds the line once and writes it bare to the
// stats-JSON file and framed here, so the two never drift apart and
// history carries every run-report block (phases, reader stage, io,
// per-unit detail, shards, resources, optimizer decisions).
//
// Line framing — every line is an envelope with a fixed-offset header so
// a checker can validate without parsing JSON first:
//   {"crc":"<16 lowercase hex>","rec":{...}}\n
// The crc is Fnv1a64 over the exact byte range of the "rec" value (from
// the opening '{' at byte 32 through the closing '}' at len-2 of the
// envelope). A record whose envelope, checksum, or JSON fails to parse
// is dropped as Status::Corruption — degrade, never abort — and the next
// Append still lands on a fresh line (a torn tail without '\n' is
// healed by prefixing one).
//
// Reading: ParseLine fills a HistoryRecord — the fields delex_inspect
// prints — from the run-report keys. Bodies written before v9 had a
// history-only shape; where a run-report key is absent the reader takes
// the old key instead ("gen", "counters.demote_*",
// "counters.trace_dropped_events", "resources.profile_samples",
// "resources.profile_lost", "resources.top_spans"), so stores from
// earlier builds still load. A decision's "source" (v10) reads empty from
// an older record. Keys of the learned cost-coefficient layer
// (before schema v7: "learning", "coeffs", decision "gain"/"bias"/
// "samples") are ignored.
//
// Retention: Options::retain_gens > 0 compacts the file on Append to the
// newest N records (atomic rewrite-and-rename); 0 keeps everything.
// Knobs: DELEX_HISTORY ("0" disables writing; default on) and
// DELEX_HISTORY_RETAIN (record count; default 0 = unlimited).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/mem.h"
#include "obs/profiler.h"
#include "obs/run_report.h"

namespace delex {
namespace obs {

/// File name of the store inside a work dir.
inline constexpr const char* kHistoryFileName = "history.jsonl";

/// \brief One generation's record as the readers see it: the run-report
/// fields that delex_inspect prints.
struct HistoryRecord {
  // Identity.
  int gen = 0;             ///< engine generation this run completed
  std::string solution;    ///< "Delex", "Cyclex", ...
  std::string tag;         ///< series tag (program/bench name)
  bool warmup = false;
  int threads = 1;
  int num_shards = 1;
  bool fast_path = true;
  std::string assignment;  ///< executed matcher plan, "ST,RU,..."

  // Volume.
  int64_t pages = 0;
  int64_t pages_identical = 0;
  int64_t result_tuples = 0;

  // Phase breakdown (µs), the Figure 11 decomposition.
  int64_t match_us = 0;
  int64_t extract_us = 0;
  int64_t copy_us = 0;
  int64_t opt_us = 0;
  int64_t capture_us = 0;
  int64_t total_us = 0;
  int64_t others_us = 0;
  int64_t phase_drift_us = 0;

  // Reader stage of the page pipeline (schema v8); -1 in records that
  // predate it.
  int64_t reader_busy_us = -1;
  int64_t reader_wait_us = -1;
  int64_t identical_runs = -1;

  // Degradation counters.
  int64_t demote_result_cache = 0;
  int64_t demote_missing_group = 0;
  int64_t decode_copy_groups = 0;
  int64_t reuse_corrupt_drops = 0;
  int64_t trace_dropped_events = 0;

  // Optimizer view (has_optimizer: the line has an optimizer block).
  bool has_optimizer = false;
  double predicted_total_us = -1;
  double cost_drift = -1;
  std::vector<OptimizerReport::UnitDecision> decisions;

  /// Per-unit plan vs. outcome.
  struct UnitSummary {
    std::string matcher;       ///< executed matcher ("DN"/"UD"/"ST"/"RU")
    double predicted_us = -1;  ///< cost-model estimate; < 0 when none
    double actual_us = 0;      ///< measured match+extract+copy+capture
  };
  std::vector<UnitSummary> units;

  /// Per-shard rollup (records with num_shards > 1 only).
  std::vector<RunReportMeta::ShardSummary> shards;

  /// Resource view at record time (v6 resources block; layer 4). Records
  /// from older stores parse with has_resources false, and delex_inspect
  /// mem reports them as pre-layer-4.
  bool has_resources = false;
  ResourceUsage resources;
  /// Span-profiler rollup; top_spans empty when the profiler never ran.
  int64_t profile_samples = 0;
  int64_t profile_lost = 0;
  std::vector<SpanSelfSample> top_spans;

  /// The framed line this record was parsed from (no trailing newline).
  /// The compactor re-emits verified lines verbatim from it.
  std::string raw;
};

/// \brief Reader diagnostics for one Load pass.
struct HistoryLoadInfo {
  int64_t corrupt_dropped = 0;  ///< lines dropped (framing/crc/JSON/order)
  Status first_error = Status::OK();  ///< first drop's Corruption status
};

/// \brief Append-only, checksummed JSONL store of HistoryRecords.
class HistoryStore {
 public:
  struct Options {
    /// Keep only the newest N records, compacting on Append; 0 keeps all.
    int retain_gens = 0;
  };

  explicit HistoryStore(std::string path) : path_(std::move(path)) {}
  HistoryStore(std::string path, Options options)
      : path_(std::move(path)), options_(options) {}

  const std::string& path() const { return path_; }

  /// Frames `body` (a run-report line) and appends it, then compacts if
  /// retention is set. A torn final line in the existing file is healed
  /// with a newline so this record always starts a fresh line.
  Status Append(std::string_view body);

  /// Loads every valid record, oldest first. Corrupt or out-of-order
  /// lines are counted into `info` (may be null) and skipped — a damaged
  /// store degrades to the records that still verify. A missing file is
  /// an empty history, not an error.
  Status Load(std::vector<HistoryRecord>* out,
              HistoryLoadInfo* info = nullptr) const;

  /// Load without constructing a store.
  static Status LoadFile(const std::string& path,
                         std::vector<HistoryRecord>* out,
                         HistoryLoadInfo* info = nullptr);

  /// Frames one record body as an envelope line (no trailing newline).
  static std::string FrameLine(std::string_view body);

  /// Parses one framed line (no newline). Any framing/checksum/JSON
  /// defect is Status::Corruption. On success fills rec->raw.
  static Status ParseLine(std::string_view line, HistoryRecord* rec);

 private:
  std::string path_;
  Options options_;
};

/// DELEX_HISTORY: history writing enabled unless set to "0".
bool HistoryEnabledFromEnv();

/// DELEX_HISTORY_RETAIN: records kept per store; 0/unset = unlimited.
int HistoryRetainFromEnv();

}  // namespace obs
}  // namespace delex

#endif  // DELEX_OBS_HISTORY_H_
