#ifndef DELEX_TESTS_RUN_STATS_COUNTERS_H_
#define DELEX_TESTS_RUN_STATS_COUNTERS_H_

// Every count-valued RunStats field of a run, by name, so two runs that
// must agree (same pages at different thread or shard counts) compare
// with one EXPECT_EQ that names any field that differs. Timers are left
// out: they measure scheduling, not work.

#include <cstdint>
#include <map>
#include <string>

#include "delex/run_stats.h"
#include "matcher/matcher.h"
#include "storage/io_stats.h"

namespace delex {

inline std::map<std::string, int64_t> CountValuedFields(const RunStats& stats) {
  std::map<std::string, int64_t> fields = {
      {"pages", stats.pages},
      {"pages_with_previous", stats.pages_with_previous},
      {"pages_identical", stats.pages_identical},
      {"result_tuples", stats.result_tuples},
      {"raw_bytes_copied", stats.raw_bytes_copied},
      {"records_decoded_skipped", stats.records_decoded_skipped},
      {"identical_runs", stats.identical_runs},
      {"fast_path_demote_result_cache", stats.fast_path_demote_result_cache},
      {"fast_path_demote_missing_group", stats.fast_path_demote_missing_group},
      {"fast_path_decode_copy_groups", stats.fast_path_decode_copy_groups},
      {"reuse_corrupt_drops", stats.reuse_corrupt_drops},
      {"page_eval_hist.count", stats.page_eval_hist.count()},
  };
  auto add_io = [&fields](const std::string& prefix, const IoStats& io) {
    fields[prefix + ".bytes_read"] = io.bytes_read;
    fields[prefix + ".bytes_written"] = io.bytes_written;
    fields[prefix + ".records_read"] = io.records_read;
    fields[prefix + ".records_written"] = io.records_written;
  };
  add_io("reuse_read_io", stats.reuse_read_io);
  add_io("reuse_write_io", stats.reuse_write_io);
  for (MatcherKind kind : kAllMatcherKinds) {
    fields[std::string("match_hist.") + MatcherKindName(kind) + ".count"] =
        stats.match_hist[static_cast<size_t>(kind)].count();
  }
  for (size_t u = 0; u < stats.units.size(); ++u) {
    const UnitRunStats& unit = stats.units[u];
    const std::string prefix = "unit" + std::to_string(u) + ".";
    fields[prefix + "input_tuples"] = unit.input_tuples;
    fields[prefix + "output_tuples"] = unit.output_tuples;
    fields[prefix + "copied_tuples"] = unit.copied_tuples;
    fields[prefix + "extracted_tuples"] = unit.extracted_tuples;
    fields[prefix + "matcher_calls"] = unit.matcher_calls;
    fields[prefix + "exact_region_hits"] = unit.exact_region_hits;
    fields[prefix + "chars_extracted"] = unit.chars_extracted;
    fields[prefix + "input_chars"] = unit.input_chars;
    fields[prefix + "extract_hist.count"] = unit.extract_hist.count();
    fields[prefix + "trial_pages"] = unit.trial_pages;
    for (MatcherKind kind : kAllMatcherKinds) {
      const MatchTally& tally = unit.trials[static_cast<size_t>(kind)];
      const std::string trial =
          prefix + "trials." + MatcherKindName(kind) + ".";
      fields[trial + "inputs"] = tally.inputs;
      fields[trial + "chars"] = tally.chars;
      fields[trial + "leftover_chars"] = tally.leftover_chars;
      fields[trial + "copy_regions"] = tally.copy_regions;
      fields[trial + "calls"] = tally.calls;
    }
  }
  return fields;
}

}  // namespace delex

#endif  // DELEX_TESTS_RUN_STATS_COUNTERS_H_
