#include "optimizer/stats_collector.h"

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "delex/trial_match.h"
#include "matcher/matcher.h"
#include "obs/trace.h"

namespace delex {
namespace {

using xlog::PlanNode;

/// Raw per-unit counts before normalization into UnitCostStats.
struct UnitAccumulator {
  int64_t input_tuples = 0;
  int64_t output_tuples = 0;
  int64_t input_chars = 0;
  int64_t extract_chars = 0;
  int64_t extract_us = 0;
  std::array<MatchTally, kNumMatcherKinds> match = {};  // by matcher kind

  void Add(const UnitAccumulator& other) {
    input_tuples += other.input_tuples;
    output_tuples += other.output_tuples;
    input_chars += other.input_chars;
    extract_chars += other.extract_chars;
    extract_us += other.extract_us;
    for (size_t mi = 0; mi < kNumMatcherKinds; ++mi) {
      match[mi] += other.match[mi];
    }
  }
};

/// One unit's statistics from its counts over `pages` observed pages;
/// the reuse-file size estimates scale to `m` pages.
UnitCostStats Normalize(const UnitAccumulator& acc, double pages, double m) {
  UnitCostStats unit;
  unit.a = static_cast<double>(acc.input_tuples) / pages;
  unit.l = acc.input_tuples > 0 ? static_cast<double>(acc.input_chars) /
                                      static_cast<double>(acc.input_tuples)
                                : 0;
  unit.extract_us_per_char =
      acc.extract_chars > 0 ? static_cast<double>(acc.extract_us) /
                                  static_cast<double>(acc.extract_chars)
                            : 0.05;
  for (size_t mi = 0; mi < kNumMatcherKinds; ++mi) {
    const MatchTally& tally = acc.match[mi];
    if (tally.chars > 0) {
      const double chars = static_cast<double>(tally.chars);
      const double inputs = static_cast<double>(tally.inputs);
      unit.match_us_per_char[mi] = static_cast<double>(tally.us) / chars;
      unit.g[mi] = static_cast<double>(tally.leftover_chars) / chars;
      unit.h[mi] = static_cast<double>(tally.copy_regions) / inputs;
      unit.s[mi] = static_cast<double>(tally.calls) / inputs;
    } else {
      unit.g[mi] = 1.0;
    }
  }
  // RU inherits selectivity from its source at plan-costing time; its own
  // matching cost is near zero.
  unit.match_us_per_char[MatcherIndex(MatcherKind::kRU)] = 0.0;

  // Reuse-file sizes: ~40 bytes per input tuple, ~60 per output tuple.
  const double outputs_per_page = static_cast<double>(acc.output_tuples) / pages;
  unit.b_blocks = unit.a * m * 40.0 / static_cast<double>(kBlockSize);
  unit.c_blocks = outputs_per_page * m * 60.0 / static_cast<double>(kBlockSize);
  return unit;
}

/// Per-unit input regions observed on one page.
struct PageObservation {
  std::vector<std::vector<TextSpan>> unit_inputs;
};

/// The sampler's IE hook: from-scratch extraction over whole regions that
/// records each unit's input regions and, when accounting, times its
/// blackbox and counts its inputs and outputs.
class RecordingHook final : public xlog::IEHook {
 public:
  RecordingHook(const UnitAnalysis& analysis,
                std::vector<UnitAccumulator>* accumulators,
                bool account_extraction, PageObservation* observation)
      : analysis_(analysis),
        accumulators_(accumulators),
        account_extraction_(account_extraction),
        observation_(observation) {}

  Status EvalIE(const PlanNode& node, const Page& page,
                const std::vector<Tuple>& /*inputs*/,
                const std::vector<xlog::RegionGroup>& groups,
                std::vector<std::vector<Tuple>>* outputs) override {
    auto unit_it = analysis_.unit_of_member.find(node.id);
    DELEX_CHECK(unit_it != analysis_.unit_of_member.end());
    const size_t u = static_cast<size_t>(unit_it->second);
    UnitAccumulator& acc = (*accumulators_)[u];
    for (size_t g = 0; g < groups.size(); ++g) {
      const TextSpan region = groups[g].region;
      observation_->unit_inputs[u].push_back(region);
      std::string_view text =
          std::string_view(page.content)
              .substr(static_cast<size_t>(region.start),
                      static_cast<size_t>(region.length()));
      Stopwatch watch;
      (*outputs)[g] = node.extractor->Extract(text, region.start, Tuple());
      if (account_extraction_) {
        acc.extract_us += watch.ElapsedMicros();
        ++acc.input_tuples;
        acc.input_chars += region.length();
        acc.extract_chars += region.length();
        // The walk appends the outputs to every tuple of the group.
        acc.output_tuples +=
            static_cast<int64_t>(groups[g].count * (*outputs)[g].size());
      }
    }
    return Status::OK();
  }

 private:
  const UnitAnalysis& analysis_;
  std::vector<UnitAccumulator>* accumulators_;
  bool account_extraction_;
  PageObservation* observation_;
};

Page TruncatePage(const Page& page, int64_t max_bytes) {
  Page out;
  out.did = page.did;
  out.url = page.url;
  out.content = page.content.substr(
      0, static_cast<size_t>(std::min<int64_t>(
             max_bytes, static_cast<int64_t>(page.content.size()))));
  return out;
}

/// Walks one sampled page pair and trial-matches its regions with every
/// matcher into `accumulators`, the pair's own set. A walk reads nothing
/// but page content, and the walk over the previous version accounts
/// nothing, so when the truncated pages are byte-identical that walk
/// would record exactly the new page's regions: it is skipped and those
/// are reused.
Status ObservePair(const PlanNode& plan, const UnitAnalysis& analysis,
                   const Page& p_full, const Page& q_full,
                   const StatsCollectorOptions& options,
                   std::vector<UnitAccumulator>* accumulators) {
  const size_t num_units = analysis.units.size();
  Page p = TruncatePage(p_full, options.max_sample_bytes);
  Page q = TruncatePage(q_full, options.max_sample_bytes);

  PageObservation p_obs;
  p_obs.unit_inputs.resize(num_units);
  RecordingHook p_hook(analysis, accumulators, /*account_extraction=*/true,
                       &p_obs);
  DELEX_RETURN_NOT_OK(xlog::WalkPlan(plan, p, &p_hook).status());
  const bool identical = q.content == p.content;
  PageObservation q_obs;
  if (!identical) {
    q_obs.unit_inputs.resize(num_units);
    RecordingHook q_hook(analysis, accumulators,
                         /*account_extraction=*/false, &q_obs);
    DELEX_RETURN_NOT_OK(xlog::WalkPlan(plan, q, &q_hook).status());
  }
  const PageObservation& q_seen = identical ? p_obs : q_obs;

  for (size_t u = 0; u < num_units; ++u) {
    const std::vector<TextSpan>& q_regions = q_seen.unit_inputs[u];
    if (q_regions.empty()) continue;
    for (size_t i = 0; i < p_obs.unit_inputs[u].size(); ++i) {
      const TextSpan& region = p_obs.unit_inputs[u][i];
      const std::string_view p_text =
          std::string_view(p.content)
              .substr(static_cast<size_t>(region.start),
                      static_cast<size_t>(region.length()));
      bool exact = false;
      for (const TextSpan& q_region : q_regions) {
        exact = q_region.length() == region.length() &&
                std::string_view(q.content).substr(
                    static_cast<size_t>(q_region.start),
                    static_cast<size_t>(q_region.length())) == p_text;
        if (exact) break;
      }
      for (MatcherKind kind :
           {MatcherKind::kDN, MatcherKind::kUD, MatcherKind::kST}) {
        TrialMatch(p.content, region, i, q.content, q_regions, exact, kind,
                   analysis.units[u], options.max_match_candidates,
                   &(*accumulators)[u].match[MatcherIndex(kind)]);
      }
    }
  }
  return Status::OK();
}

}  // namespace

CostModelStats PairStats(const SnapshotView& current,
                         const SnapshotView& previous, bool page_fast_path,
                         std::vector<std::pair<size_t, size_t>>* matched) {
  size_t evaluated = 0;
  size_t with_previous = 0;
  int64_t previous_bytes = 0;
  for (size_t i = 0; i < current.NumPages(); ++i) {
    const Page& page = current.page(i);
    if (auto q_idx = previous.snapshot().FindByUrl(page.url)) {
      const Page& q_page = previous.snapshot().pages()[*q_idx];
      if (page_fast_path && q_page.content_hash == page.content_hash &&
          q_page.content.size() == page.content.size()) {
        continue;
      }
      ++with_previous;
      previous_bytes += static_cast<int64_t>(q_page.content.size());
      if (matched != nullptr) matched->emplace_back(i, *q_idx);
    }
    ++evaluated;
  }
  CostModelStats stats;
  stats.m = static_cast<double>(evaluated);
  stats.f = evaluated == 0 ? 0
                           : static_cast<double>(with_previous) /
                                 static_cast<double>(evaluated);
  stats.d_blocks =
      static_cast<double>((previous_bytes + kBlockSize - 1) / kBlockSize);
  return stats;
}

Result<CostModelStats> CollectStats(const xlog::PlanNodePtr& plan,
                                    const UnitAnalysis& analysis,
                                    const SnapshotView& current,
                                    const SnapshotView& previous,
                                    const StatsCollectorOptions& options,
                                    uint64_t seed, ThreadPool* pool,
                                    bool page_fast_path) {
  const size_t num_units = analysis.units.size();
  std::vector<std::pair<size_t, size_t>> candidates;
  CostModelStats stats =
      PairStats(current, previous, page_fast_path, &candidates);
  stats.units.resize(num_units);

  // Sample evaluated page pairs.
  Rng rng(seed);
  std::vector<std::pair<size_t, size_t>> sample;
  for (int draws = 0;
       draws < options.sample_pages && !candidates.empty();
       ++draws) {
    sample.push_back(candidates[rng.Uniform(candidates.size())]);
  }

  // One task per pair, each with its own accumulators, merged in sample
  // order below. At most one task per worker is outstanding, so a large
  // sample never trips the pool's saturation warning.
  std::vector<std::vector<UnitAccumulator>> pair_accumulators(
      sample.size(), std::vector<UnitAccumulator>(num_units));
  {
    TaskGroup tasks(pool, pool != nullptr
                              ? static_cast<size_t>(pool->num_threads())
                              : 1);
    for (size_t i = 0; i < sample.size(); ++i) {
      tasks.Submit([&, i]() -> Status {
        DELEX_TRACE_SPAN("opt_sample_pair", static_cast<int64_t>(i),
                         "optimizer");
        return ObservePair(*plan, analysis, current.page(sample[i].first),
                           previous.snapshot().pages()[sample[i].second],
                           options, &pair_accumulators[i]);
      });
    }
    DELEX_RETURN_NOT_OK(tasks.Wait());
  }

  std::vector<UnitAccumulator> accumulators(num_units);
  for (size_t i = 0; i < sample.size(); ++i) {
    for (size_t u = 0; u < num_units; ++u) {
      accumulators[u].Add(pair_accumulators[i][u]);
    }
  }
  const double pages = std::max<double>(1.0, static_cast<double>(sample.size()));
  for (size_t u = 0; u < num_units; ++u) {
    stats.units[u] = Normalize(accumulators[u], pages, stats.m);
  }
  return stats;
}

std::optional<CostModelStats> StatsFromRun(const RunStats& run) {
  const int64_t evaluated = run.pages - run.pages_identical;
  const int64_t with_previous = run.pages_with_previous - run.pages_identical;
  if (with_previous <= 0) return std::nullopt;
  CostModelStats stats;
  stats.m = static_cast<double>(evaluated);
  stats.f = static_cast<double>(with_previous) / static_cast<double>(evaluated);
  stats.units.resize(run.units.size());
  for (size_t u = 0; u < run.units.size(); ++u) {
    const UnitRunStats& unit = run.units[u];
    UnitAccumulator acc;
    acc.input_tuples = unit.input_tuples;
    acc.output_tuples = unit.output_tuples;
    acc.input_chars = unit.input_chars;
    acc.extract_chars = unit.chars_extracted;
    acc.extract_us = unit.extract_us;
    acc.match = unit.trials;
    stats.units[u] = Normalize(acc, static_cast<double>(evaluated), stats.m);
  }
  return stats;
}

CostModelStats AverageStats(const std::vector<CostModelStats>& history) {
  DELEX_CHECK(!history.empty());
  CostModelStats out = history.back();
  if (history.size() == 1) return out;
  const double n = static_cast<double>(history.size());
  out.f = 0;
  out.m = 0;
  out.d_blocks = 0;
  for (UnitCostStats& u : out.units) u = UnitCostStats();
  for (const CostModelStats& s : history) {
    out.f += s.f / n;
    out.m += s.m / n;
    out.d_blocks += s.d_blocks / n;
    for (size_t i = 0; i < out.units.size(); ++i) {
      const UnitCostStats& in = s.units[i];
      UnitCostStats& acc = out.units[i];
      acc.a += in.a / n;
      acc.l += in.l / n;
      acc.extract_us_per_char += in.extract_us_per_char / n;
      acc.b_blocks += in.b_blocks / n;
      acc.c_blocks += in.c_blocks / n;
      for (size_t mi = 0; mi < kNumMatcherKinds; ++mi) {
        acc.match_us_per_char[mi] += in.match_us_per_char[mi] / n;
        acc.g[mi] += in.g[mi] / n;
        acc.h[mi] += in.h[mi] / n;
        acc.s[mi] += in.s[mi] / n;
      }
    }
  }
  return out;
}

}  // namespace delex
