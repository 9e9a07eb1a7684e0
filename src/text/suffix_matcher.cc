#include "text/suffix_matcher.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/logging.h"

namespace delex {
namespace {

std::atomic<int64_t> g_truncated_total{0};

void NoteTruncation(size_t max_candidates) {
  g_truncated_total.fetch_add(1, std::memory_order_relaxed);
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    DELEX_LOG(WARN) << "SuffixMatch candidate list truncated at "
                    << max_candidates
                    << " (raise DELEX_SUFFIX_MAX_CANDIDATES to keep more; "
                       "matches stay correct but may be less complete)";
  }
}

/// One side's claimed stretches: non-empty, disjoint, sorted by start (so
/// by end too), and never merged, so overlap is one binary search.
class ClaimedSpans {
 public:
  bool Overlaps(const TextSpan& span) const {
    auto it = std::upper_bound(
        spans_.begin(), spans_.end(), span.start,
        [](int64_t pos, const TextSpan& claimed) { return pos < claimed.end; });
    return it != spans_.end() && it->start < span.end;
  }

  /// `span` must be non-empty and overlap no claimed stretch.
  void Add(const TextSpan& span) {
    auto it = std::upper_bound(spans_.begin(), spans_.end(), span);
    spans_.insert(it, span);
  }

 private:
  std::vector<TextSpan> spans_;
};

}  // namespace

int64_t SuffixCandidatesTruncatedTotal() {
  return g_truncated_total.load(std::memory_order_relaxed);
}

SuffixMatchOptions SuffixMatchOptions::FromEnv() {
  SuffixMatchOptions options;
  const char* env = std::getenv("DELEX_SUFFIX_MAX_CANDIDATES");
  if (env != nullptr && *env != '\0') {
    long long value = std::atoll(env);
    if (value > 0) {
      options.max_candidates = static_cast<size_t>(value);
    } else {
      DELEX_LOG(WARN) << "ignoring DELEX_SUFFIX_MAX_CANDIDATES='" << env
                      << "' (want a positive integer)";
    }
  }
  return options;
}

SuffixAutomaton::SuffixAutomaton(std::string_view text) {
  const size_t n = text.size();
  // For n >= 2 an automaton has at most 2n - 1 states and S + n - 2
  // transitions. Every non-root state but the last has an inline edge, and
  // the root's edges are in the dense table, so at most n - 1 edges reach
  // the arena.
  states_.reserve(std::max<size_t>(2 * n, 1));
  edges_.reserve(n);
  states_.emplace_back();  // root
  root_next_.fill(-1);
  int32_t last = 0;
  for (size_t i = 0; i < n; ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    const int32_t cur = static_cast<int32_t>(states_.size());
    State fresh;
    fresh.len = states_[static_cast<size_t>(last)].len + 1;
    fresh.first_end = static_cast<int32_t>(i);
    states_.push_back(fresh);
    int32_t v = last;
    int32_t u = -1;
    while (v >= 0 && (u = Transition(v, c)) < 0) {
      AddTransition(v, c, cur);
      v = states_[static_cast<size_t>(v)].link;
    }
    if (v < 0) {
      states_[static_cast<size_t>(cur)].link = 0;
    } else if (states_[static_cast<size_t>(u)].len ==
               states_[static_cast<size_t>(v)].len + 1) {
      states_[static_cast<size_t>(cur)].link = u;
    } else {
      const int32_t clone = static_cast<int32_t>(states_.size());
      for (int32_t w = v; w >= 0; w = states_[static_cast<size_t>(w)].link) {
        int32_t* target = TransitionSlot(w, c);
        if (target == nullptr || *target != u) break;
        *target = clone;
      }
      // first_end inherited from u is still a valid (minimal) end position.
      State copy = states_[static_cast<size_t>(u)];
      copy.len = states_[static_cast<size_t>(v)].len + 1;
      copy.edges = CopyEdges(copy.edges);
      states_.push_back(copy);
      states_[static_cast<size_t>(u)].link = clone;
      states_[static_cast<size_t>(cur)].link = clone;
    }
    last = cur;
  }
  for (int b = 0; b < 256; ++b) {
    if (root_next_[static_cast<size_t>(b)] >= 0) {
      root_alphabet_.Add(static_cast<unsigned char>(b));
    }
  }
}

int32_t* SuffixAutomaton::TransitionSlot(int32_t state, unsigned char c) {
  if (state == 0) return root_next_[c] >= 0 ? &root_next_[c] : nullptr;
  State& s = states_[static_cast<size_t>(state)];
  if (s.to0 >= 0 && s.byte0 == c) return &s.to0;
  for (int32_t e = s.edges; e >= 0;) {
    Edge& edge = edges_[static_cast<size_t>(e)];
    if (edge.byte == c) return &edge.to;
    e = edge.next;
  }
  return nullptr;
}

void SuffixAutomaton::AddTransition(int32_t state, unsigned char c,
                                    int32_t to) {
  if (state == 0) {
    root_next_[c] = to;
    return;
  }
  State& s = states_[static_cast<size_t>(state)];
  if (s.to0 < 0) {
    s.to0 = to;
    s.byte0 = c;
    return;
  }
  edges_.push_back({to, s.edges, c});
  s.edges = static_cast<int32_t>(edges_.size()) - 1;
}

int32_t SuffixAutomaton::CopyEdges(int32_t head) {
  int32_t first = -1;
  int32_t prev = -1;
  for (int32_t e = head; e >= 0; e = edges_[static_cast<size_t>(e)].next) {
    const Edge copy = {edges_[static_cast<size_t>(e)].to, -1,
                       edges_[static_cast<size_t>(e)].byte};
    const int32_t index = static_cast<int32_t>(edges_.size());
    edges_.push_back(copy);
    if (prev < 0) {
      first = index;
    } else {
      edges_[static_cast<size_t>(prev)].next = index;
    }
    prev = index;
  }
  return first;
}

int64_t SuffixAutomaton::LongestCommonSubstring(std::string_view query) const {
  int64_t best = 0;
  ScanMaximalMatches(query, 1, [&](int64_t, int64_t, int64_t len) {
    best = std::max(best, len);
  });
  return best;
}

std::vector<MatchSegment> SuffixMatch(std::string_view p_text, int64_t p_base,
                                      std::string_view q_text, int64_t q_base,
                                      const SuffixMatchOptions& options) {
  std::vector<MatchSegment> out;
  if (p_text.empty() || q_text.empty()) return out;

  struct Candidate {
    int64_t p_start;
    int64_t q_start;
    int64_t length;
  };
  std::vector<Candidate> candidates;
  bool truncated = false;

  SuffixAutomaton automaton(q_text);
  automaton.ScanMaximalMatches(
      p_text, options.min_match_length,
      [&](int64_t p_end, int64_t q_end, int64_t len) {
        if (candidates.size() >= options.max_candidates) {
          truncated = true;
          return;
        }
        candidates.push_back({p_end - len + 1, q_end - len + 1, len});
      });
  if (truncated) NoteTruncation(options.max_candidates);

  // Greedy tiling: longest candidates first, rejecting any that overlaps an
  // already-claimed stretch on either side. Ties broken by position to keep
  // the result deterministic.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.length != b.length) return a.length > b.length;
              if (a.p_start != b.p_start) return a.p_start < b.p_start;
              return a.q_start < b.q_start;
            });

  ClaimedSpans p_claimed;
  ClaimedSpans q_claimed;
  for (const Candidate& c : candidates) {
    TextSpan p_span(c.p_start, c.p_start + c.length);
    TextSpan q_span(c.q_start, c.q_start + c.length);
    if (p_claimed.Overlaps(p_span) || q_claimed.Overlaps(q_span)) continue;
    p_claimed.Add(p_span);
    q_claimed.Add(q_span);
    out.emplace_back(p_span.Shift(p_base), q_span.Shift(q_base));
  }

  std::sort(out.begin(), out.end(),
            [](const MatchSegment& a, const MatchSegment& b) {
              return a.p.start < b.p.start;
            });
  return out;
}

}  // namespace delex
