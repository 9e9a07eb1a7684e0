#include "delex/paranoid.h"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "common/logging.h"
#include "common/simd.h"
#include "delex/engine.h"

namespace delex {
namespace paranoid {

bool Enabled() {
#ifdef DELEX_PARANOID_DEFAULT
  static constexpr bool kDefault = DELEX_PARANOID_DEFAULT != 0;
#else
  static constexpr bool kDefault = false;
#endif
  static const bool enabled = [] {
    const char* env = std::getenv("DELEX_PARANOID");
    if (env == nullptr || env[0] == '\0') return kDefault;
    return std::string_view(env) != "0";
  }();
  return enabled;
}

void CheckSegments(std::string_view p_content, const TextSpan& p_region,
                   std::string_view q_content, const TextSpan& q_region,
                   const std::vector<MatchSegment>& segments) {
  for (const MatchSegment& seg : segments) {
    DELEX_CHECK_MSG(seg.p.length() == seg.q.length(),
                    "segment sides differ in length: " << seg);
    DELEX_CHECK_MSG(!seg.p.empty(), "empty match segment: " << seg);
    DELEX_CHECK_MSG(p_region.Contains(seg.p),
                    "segment escapes p region " << p_region << ": " << seg);
    DELEX_CHECK_MSG(q_region.Contains(seg.q),
                    "segment escapes q region " << q_region << ": " << seg);
    std::string_view p_text = p_content.substr(
        static_cast<size_t>(seg.p.start), static_cast<size_t>(seg.p.length()));
    std::string_view q_text = q_content.substr(
        static_cast<size_t>(seg.q.start), static_cast<size_t>(seg.q.length()));
    DELEX_CHECK_MSG(p_text == q_text, "segment bytes differ: " << seg);
  }
}

void CheckDerivation(const RegionDerivation& derivation,
                     const TextSpan& p_region,
                     const std::vector<TextSpan>& tiles) {
  TextSpan prev_copy(p_region.start - 1, p_region.start - 1);
  for (const CopyRegion& copy : derivation.copy_regions) {
    DELEX_CHECK_MSG(p_region.Contains(copy.p_interior),
                    "copy interior escapes region " << p_region << ": "
                                                    << copy.p_interior);
    DELEX_CHECK_MSG(copy.p_interior == copy.q_interior.Shift(copy.delta),
                    "copy interiors disagree through delta " << copy.delta);
    DELEX_CHECK_MSG(copy.p_interior.start >= prev_copy.end,
                    "copy interiors overlap or regress: "
                        << prev_copy << " then " << copy.p_interior);
    prev_copy = copy.p_interior;
  }
  TextSpan prev_ext(p_region.start - 1, p_region.start - 1);
  for (const TextSpan& sub : derivation.extraction_regions.spans()) {
    DELEX_CHECK_MSG(p_region.Contains(sub),
                    "extraction region escapes " << p_region << ": " << sub);
    DELEX_CHECK_MSG(sub.start >= prev_ext.end,
                    "extraction regions overlap or regress: "
                        << prev_ext << " then " << sub);
    prev_ext = sub;
  }
  for (const TextSpan& safe : derivation.p_safe.spans()) {
    DELEX_CHECK_MSG(p_region.Contains(safe),
                    "safe interior escapes region " << p_region << ": "
                                                    << safe);
  }
  if (tiles.empty()) return;

  int64_t cursor = p_region.start;
  std::vector<int64_t> boundaries = {cursor};
  for (const TextSpan& tile : tiles) {
    DELEX_CHECK_MSG(tile.start == cursor && !tile.empty(),
                    "tiles do not partition " << p_region << ": " << tile
                                              << " at " << cursor);
    cursor = tile.end;
    boundaries.push_back(cursor);
  }
  DELEX_CHECK_MSG(cursor == p_region.end,
                  "tiles end at " << cursor << ", not at the end of "
                                  << p_region);
  for (const TextSpan& sub : derivation.extraction_regions.spans()) {
    for (int64_t edge : {sub.start, sub.end}) {
      DELEX_CHECK_MSG(
          std::binary_search(boundaries.begin(), boundaries.end(), edge),
          "extraction region " << sub << " ends mid-tile at " << edge);
    }
  }
  for (const TextSpan& tile : tiles) {
    // A tile that p_safe does not cover holds a residue character.
    if (derivation.p_safe.ContainsWithinOne(tile)) continue;
    DELEX_CHECK_MSG(derivation.extraction_regions.ContainsWithinOne(tile),
                    "tile " << tile
                            << " meets the residue but is not re-extracted");
  }
}

void CheckCopiedMention(const CopyRegion& copy, const Tuple& relocated,
                        const TextSpan& p_region) {
  TextSpan envelope = SpanEnvelope(relocated);
  if (envelope.empty()) return;  // span-free tuple: nothing to bound
  DELEX_CHECK_MSG(copy.p_interior.Contains(envelope),
                  "copied mention " << envelope
                                    << " escapes its safe interior "
                                    << copy.p_interior);
  DELEX_CHECK_MSG(p_region.Contains(envelope),
                  "copied mention " << envelope << " escapes input region "
                                    << p_region);
}

void CheckPageGroupOrdinals(int64_t did,
                            const std::vector<InputTupleRec>& inputs,
                            const std::vector<OutputTupleRec>& outputs) {
  for (size_t i = 0; i < inputs.size(); ++i) {
    DELEX_CHECK_MSG(inputs[i].tid == static_cast<int64_t>(i),
                    "input ordinals not dense at " << i << " (tid "
                                                   << inputs[i].tid << ")");
    DELEX_CHECK_MSG(inputs[i].did == did,
                    "input record did " << inputs[i].did
                                        << " leaked across page " << did);
  }
  for (const OutputTupleRec& out : outputs) {
    DELEX_CHECK_MSG(
        out.itid >= 0 && out.itid < static_cast<int64_t>(inputs.size()),
        "output itid " << out.itid << " names no input of page " << did);
    DELEX_CHECK_MSG(out.did == did, "output record did "
                                        << out.did << " leaked across page "
                                        << did);
  }
}

void CheckRawSlice(const RawPageSlice& slice) {
  std::vector<InputTupleRec> inputs;
  std::vector<OutputTupleRec> outputs;
  Status st = DecodeRawPageSlice(slice, /*did=*/0, &inputs, &outputs);
  DELEX_CHECK_MSG(st.ok(),
                  "raw slice does not decode: " << st.ToString());
  DELEX_CHECK_MSG(static_cast<int64_t>(inputs.size()) == slice.n_inputs,
                  "raw slice input count " << inputs.size() << " vs "
                                           << slice.n_inputs);
  DELEX_CHECK_MSG(static_cast<int64_t>(outputs.size()) == slice.n_outputs,
                  "raw slice output count " << outputs.size() << " vs "
                                            << slice.n_outputs);
  CheckPageGroupOrdinals(0, inputs, outputs);
}

namespace {

/// Canonical multiset form of a result set: sorted by TupleLess.
std::vector<Tuple> Canonical(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end(), TupleLess);
  return rows;
}

}  // namespace

Status DifferentialOracle(const xlog::PlanNodePtr& plan,
                          const std::vector<Snapshot>& series,
                          const MatcherAssignment& assignment,
                          const std::string& scratch_dir) {
  struct Config {
    const char* name;
    int num_threads;
    bool disable_fast_path;
    bool force_scalar_simd;
  };
  const Config configs[] = {
      {"serial", 1, false, false},
      {"parallel", 3, false, false},
      {"no-fast-path", 1, true, false},
      // simd-on == simd-off: the vectorized kernels must be byte-identical
      // to the scalar fallback (DELEX_SIMD=0 equivalence, in-process).
      {"simd-off", 1, false, true},
  };
  std::vector<std::vector<std::vector<Tuple>>> per_config;
  for (const Config& config : configs) {
    std::optional<simd::ScopedLevelOverride> scalar_guard;
    if (config.force_scalar_simd) {
      scalar_guard.emplace(simd::Level::kScalar);
    }
    DelexEngine::Options options;
    options.work_dir = scratch_dir + "/oracle-" + config.name;
    options.num_threads = config.num_threads;
    options.disable_page_fast_path = config.disable_fast_path;
    DelexEngine engine(plan, options);
    DELEX_RETURN_NOT_OK(engine.Init());
    std::vector<std::vector<Tuple>> snapshots;
    for (size_t i = 0; i < series.size(); ++i) {
      DELEX_ASSIGN_OR_RETURN(
          std::vector<Tuple> rows,
          engine.RunSnapshot(series[i], i > 0 ? &series[i - 1] : nullptr,
                             assignment, nullptr));
      snapshots.push_back(Canonical(std::move(rows)));
    }
    per_config.push_back(std::move(snapshots));
  }
  for (size_t c = 1; c < per_config.size(); ++c) {
    for (size_t i = 0; i < per_config[c].size(); ++i) {
      if (per_config[c][i] != per_config[0][i]) {
        return Status::Corruption(
            std::string("differential oracle: ") + configs[c].name +
            " diverges from " + configs[0].name + " at snapshot " +
            std::to_string(i));
      }
    }
  }
  return Status::OK();
}

}  // namespace paranoid
}  // namespace delex
