#include "optimizer/stats_collector.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "delex/region_derivation.h"
#include "matcher/matcher.h"
#include "obs/trace.h"

namespace delex {
namespace {

using xlog::PlanNode;

/// Raw accumulators before normalization into UnitCostStats.
struct UnitAccumulator {
  int64_t input_tuples = 0;
  int64_t output_tuples = 0;
  int64_t total_region_len = 0;
  int64_t extract_chars = 0;
  int64_t extract_us = 0;
  // Indexed by matcher kind.
  std::array<int64_t, kNumMatcherKinds> matched_inputs = {};
  std::array<int64_t, kNumMatcherKinds> matched_len = {};
  std::array<int64_t, kNumMatcherKinds> leftover_len = {};
  std::array<int64_t, kNumMatcherKinds> copy_regions = {};
  std::array<int64_t, kNumMatcherKinds> matcher_calls = {};
  std::array<int64_t, kNumMatcherKinds> match_us = {};

  void Add(const UnitAccumulator& other) {
    input_tuples += other.input_tuples;
    output_tuples += other.output_tuples;
    total_region_len += other.total_region_len;
    extract_chars += other.extract_chars;
    extract_us += other.extract_us;
    for (size_t mi = 0; mi < kNumMatcherKinds; ++mi) {
      matched_inputs[mi] += other.matched_inputs[mi];
      matched_len[mi] += other.matched_len[mi];
      leftover_len[mi] += other.leftover_len[mi];
      copy_regions[mi] += other.copy_regions[mi];
      matcher_calls[mi] += other.matcher_calls[mi];
      match_us[mi] += other.match_us[mi];
    }
  }
};

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
        acc.total_region_len += region.length();
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

/// Trial-matches the sampled regions of one unit with one matcher kind,
/// mirroring the engine's exact-content fast path, candidate policy and
/// region derivation (tiles included).
void TrialMatch(const Page& p_page, const Page& q_page,
                const std::vector<TextSpan>& p_regions,
                const std::vector<TextSpan>& q_regions, MatcherKind kind,
                const IEUnit& unit, int max_candidates,
                UnitAccumulator* acc) {
  const size_t mi = MatcherIndex(kind);
  MatchContext ctx;
  for (size_t i = 0; i < p_regions.size(); ++i) {
    const TextSpan& region = p_regions[i];
    if (q_regions.empty()) continue;
    Stopwatch watch;

    std::string_view p_text =
        std::string_view(p_page.content)
            .substr(static_cast<size_t>(region.start),
                    static_cast<size_t>(region.length()));

    // Exact-content fast path (shared by all matcher assignments).
    const TextSpan* exact = nullptr;
    for (const TextSpan& q_region : q_regions) {
      if (q_region.length() != region.length()) continue;
      std::string_view q_text =
          std::string_view(q_page.content)
              .substr(static_cast<size_t>(q_region.start),
                      static_cast<size_t>(q_region.length()));
      if (q_text == p_text) {
        exact = &q_region;
        break;
      }
    }

    std::vector<TaggedSegment> segments;
    if (exact != nullptr) {
      segments.push_back({MatchSegment(region, *exact), *exact, 0});
    } else if (kind == MatcherKind::kUD || kind == MatcherKind::kST) {
      for (int64_t offset = 0;
           offset < static_cast<int64_t>(q_regions.size()) &&
           offset < max_candidates;
           ++offset) {
        int64_t idx = static_cast<int64_t>(i) +
                      (offset % 2 == 0 ? 1 : -1) * ((offset + 1) / 2);
        if (offset == 0) idx = static_cast<int64_t>(i);
        if (idx < 0 || idx >= static_cast<int64_t>(q_regions.size())) continue;
        const TextSpan& q_region = q_regions[static_cast<size_t>(idx)];
        ++acc->matcher_calls[mi];
        for (const MatchSegment& seg :
             GetMatcher(kind).Match(p_page.content, region, q_page.content,
                                    q_region, &ctx)) {
          segments.push_back({seg, q_region, 0});
        }
      }
    }

    std::vector<TextSpan> tiles;
    if (exact == nullptr && !segments.empty()) {
      tiles = unit.ie_node->extractor->Tiles(p_text, region.start);
    }
    RegionDerivation derivation = DeriveRegionsTagged(
        region, std::move(segments), unit.alpha, unit.beta, tiles);
    acc->match_us[mi] += watch.ElapsedMicros();
    ++acc->matched_inputs[mi];
    acc->matched_len[mi] += region.length();
    acc->leftover_len[mi] += derivation.extraction_regions.TotalLength();
    acc->copy_regions[mi] +=
        static_cast<int64_t>(derivation.copy_regions.size());
  }
}

/// Walks one sampled page pair and trial-matches its regions into
/// `accumulators`, the pair's own set. A walk reads nothing but page
/// content, and the walk over the previous version accounts nothing, so
/// when the truncated pages are byte-identical that walk would record
/// exactly the new page's regions: it is skipped and those are reused.
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
    const IEUnit& unit = analysis.units[u];
    for (MatcherKind kind :
         {MatcherKind::kDN, MatcherKind::kUD, MatcherKind::kST}) {
      TrialMatch(p, q, p_obs.unit_inputs[u], q_seen.unit_inputs[u], kind,
                 unit, options.max_match_candidates, &(*accumulators)[u]);
    }
  }
  return Status::OK();
}

}  // namespace

Result<CostModelStats> CollectStats(const xlog::PlanNodePtr& plan,
                                    const UnitAnalysis& analysis,
                                    const SnapshotView& current,
                                    const SnapshotView& previous,
                                    const StatsCollectorOptions& options,
                                    uint64_t seed, ThreadPool* pool) {
  CostModelStats stats;
  const size_t num_units = analysis.units.size();
  stats.units.resize(num_units);
  stats.m = static_cast<double>(current.NumPages());
  stats.d_blocks = static_cast<double>(previous.TotalBlocks());

  // f: exact URL overlap. Candidates are (index in the `current` view,
  // index in the whole previous snapshot).
  std::vector<std::pair<size_t, size_t>> candidates;
  for (size_t i = 0; i < current.NumPages(); ++i) {
    if (auto q_idx = previous.snapshot().FindByUrl(current.page(i).url)) {
      candidates.emplace_back(i, *q_idx);
    }
  }
  stats.f = current.NumPages() == 0
                ? 0
                : static_cast<double>(candidates.size()) /
                      static_cast<double>(current.NumPages());

  // Sample page pairs.
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

  // Normalize.
  const double pages = std::max<double>(1.0, static_cast<double>(sample.size()));
  for (size_t u = 0; u < num_units; ++u) {
    const UnitAccumulator& acc = accumulators[u];
    UnitCostStats& unit = stats.units[u];
    unit.a = static_cast<double>(acc.input_tuples) / pages;
    unit.l = acc.input_tuples > 0 ? static_cast<double>(acc.total_region_len) /
                                        static_cast<double>(acc.input_tuples)
                                  : 0;
    unit.extract_us_per_char =
        acc.extract_chars > 0 ? static_cast<double>(acc.extract_us) /
                                    static_cast<double>(acc.extract_chars)
                              : 0.05;
    for (size_t mi = 0; mi < kNumMatcherKinds; ++mi) {
      if (acc.matched_len[mi] > 0) {
        unit.match_us_per_char[mi] =
            static_cast<double>(acc.match_us[mi]) /
            static_cast<double>(acc.matched_len[mi]);
        unit.g[mi] = static_cast<double>(acc.leftover_len[mi]) /
                     static_cast<double>(acc.matched_len[mi]);
        unit.h[mi] = static_cast<double>(acc.copy_regions[mi]) /
                     static_cast<double>(acc.matched_inputs[mi]);
        unit.s[mi] = static_cast<double>(acc.matcher_calls[mi]) /
                     static_cast<double>(acc.matched_inputs[mi]);
      } else {
        unit.g[mi] = 1.0;
      }
    }
    // RU inherits selectivity from its source at plan-costing time; its
    // own matching cost is near zero.
    unit.match_us_per_char[MatcherIndex(MatcherKind::kRU)] = 0.0;

    // Reuse-file sizes: ~40 bytes per input tuple, ~60 per output tuple.
    double outputs_per_page = static_cast<double>(acc.output_tuples) / pages;
    unit.b_blocks = unit.a * stats.m * 40.0 / static_cast<double>(kBlockSize);
    unit.c_blocks =
        outputs_per_page * stats.m * 60.0 / static_cast<double>(kBlockSize);
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
