#include "matcher/matcher.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/mem.h"
#include "obs/trace.h"
#include "text/diff.h"
#include "text/suffix_matcher.h"

namespace delex {
namespace {

// Matcher working-set accounting (obs layer 4). The text layer owns the
// actual allocations but must stay obs-free, so the charge is a scoped
// estimate taken here, at the call site.

std::string_view RegionText(std::string_view content, const TextSpan& region) {
  DELEX_CHECK_GE(region.start, 0);
  DELEX_CHECK_LE(region.end, static_cast<int64_t>(content.size()));
  return content.substr(static_cast<size_t>(region.start),
                        static_cast<size_t>(region.length()));
}

/// DN: declares no overlap — zero cost, IE runs from scratch.
class DnMatcher : public Matcher {
 public:
  MatcherKind Kind() const override { return MatcherKind::kDN; }

  std::vector<MatchSegment> Match(std::string_view, const TextSpan&,
                                  std::string_view, const TextSpan&,
                                  MatchContext*) const override {
    return {};
  }
};

/// UD: line-based Myers diff (reference [24]); linear, in-order matches
/// only.
class UdMatcher : public Matcher {
 public:
  MatcherKind Kind() const override { return MatcherKind::kUD; }

  std::vector<MatchSegment> Match(std::string_view p_content,
                                  const TextSpan& p_region,
                                  std::string_view q_content,
                                  const TextSpan& q_region,
                                  MatchContext* ctx) const override {
    DELEX_TRACE_SPAN("match_ud", p_region.length(), "matcher");
    obs::ScopedMemCharge mem(obs::MemTag::kMatcher,
                             p_region.length() + q_region.length());
    std::vector<MatchSegment> segments =
        DiffMatch(RegionText(p_content, p_region), p_region.start,
                  RegionText(q_content, q_region), q_region.start);
    if (ctx != nullptr) ctx->Record(p_region, q_region, segments);
    return segments;
  }
};

/// ST: suffix-automaton matcher; linear, finds relocated blocks.
class StMatcher : public Matcher {
 public:
  MatcherKind Kind() const override { return MatcherKind::kST; }

  std::vector<MatchSegment> Match(std::string_view p_content,
                                  const TextSpan& p_region,
                                  std::string_view q_content,
                                  const TextSpan& q_region,
                                  MatchContext* ctx) const override {
    DELEX_TRACE_SPAN("match_st", p_region.length(), "matcher");
    // SuffixMatch indexes the old region: charge what its automaton
    // reserves.
    obs::ScopedMemCharge mem(
        obs::MemTag::kMatcher,
        q_region.length() * SuffixAutomaton::kBytesPerIndexedChar);
    // Env-tuned once per process (DELEX_SUFFIX_MAX_CANDIDATES).
    static const SuffixMatchOptions options = SuffixMatchOptions::FromEnv();
    std::vector<MatchSegment> segments =
        SuffixMatch(RegionText(p_content, p_region), p_region.start,
                    RegionText(q_content, q_region), q_region.start, options);
    if (ctx != nullptr) ctx->Record(p_region, q_region, segments);
    return segments;
  }
};

/// RU: answers from the page pair's recorded match triples by clipping —
/// near-zero cost (§5.4).
class RuMatcher : public Matcher {
 public:
  MatcherKind Kind() const override { return MatcherKind::kRU; }

  std::vector<MatchSegment> Match(std::string_view, const TextSpan& p_region,
                                  std::string_view, const TextSpan& q_region,
                                  MatchContext* ctx) const override {
    DELEX_TRACE_SPAN("match_ru", p_region.length(), "matcher");
    std::vector<MatchSegment> out;
    if (ctx == nullptr) return out;
    for (const MatchContext::Entry& entry : ctx->entries()) {
      for (const MatchSegment& seg : entry.segments) {
        // Clip the p side to the query region, map the clip onto the q
        // side, clip again, and map back — the surviving stretch overlaps
        // both query regions and is still byte-identical.
        TextSpan p_clip = seg.p.Intersect(p_region);
        if (p_clip.empty()) continue;
        TextSpan q_clip = p_clip.Shift(-seg.Delta()).Intersect(q_region);
        if (q_clip.empty()) continue;
        TextSpan p_final = q_clip.Shift(seg.Delta());
        out.emplace_back(p_final, q_clip);
      }
    }
    std::sort(out.begin(), out.end(),
              [](const MatchSegment& a, const MatchSegment& b) {
                return a.p.start < b.p.start;
              });
    return out;
  }
};

}  // namespace

const char* MatcherKindName(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kDN:
      return "DN";
    case MatcherKind::kUD:
      return "UD";
    case MatcherKind::kST:
      return "ST";
    case MatcherKind::kRU:
      return "RU";
  }
  return "?";
}

const Matcher& GetMatcher(MatcherKind kind) {
  static const DnMatcher dn;
  static const UdMatcher ud;
  static const StMatcher st;
  static const RuMatcher ru;
  switch (kind) {
    case MatcherKind::kDN:
      return dn;
    case MatcherKind::kUD:
      return ud;
    case MatcherKind::kST:
      return st;
    case MatcherKind::kRU:
      return ru;
  }
  return dn;
}

}  // namespace delex
