#ifndef DELEX_TEXT_SUFFIX_MATCHER_H_
#define DELEX_TEXT_SUFFIX_MATCHER_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/simd.h"
#include "text/match_segment.h"

namespace delex {

/// \brief Options for the suffix-tree-style matcher (ST in the paper).
struct SuffixMatchOptions {
  /// Minimum length of a reported common substring. Short accidental
  /// matches (single words) are useless for reuse — the β-shrunken interior
  /// would be empty — and bloat the segment list. Must be at least 1.
  int64_t min_match_length = 24;

  /// Safety valve on the number of candidate maximal matches considered by
  /// the greedy tiling step. Hitting it truncates the candidate list (the
  /// result is still correct, just potentially less complete); truncation
  /// bumps the process-wide tally below and the engine WARNs once per run.
  size_t max_candidates = 1 << 16;

  /// Defaults overridden by the environment: DELEX_SUFFIX_MAX_CANDIDATES
  /// (positive integer) replaces max_candidates.
  static SuffixMatchOptions FromEnv();
};

/// \brief Finds common substrings between region `p_text` (absolute offset
/// `p_base`) and region `q_text` (offset `q_base`).
///
/// Implementation: a suffix automaton over the old region is streamed with
/// the new region (O(|R| + |S|) construction and matching, the bound the
/// paper quotes for ST), producing locally-maximal common substrings; a
/// greedy tiling pass then selects a set of mutually non-overlapping
/// segments, longest first. Unlike DiffMatch, relocated blocks are found —
/// the returned segments may cross.
std::vector<MatchSegment> SuffixMatch(
    std::string_view p_text, int64_t p_base, std::string_view q_text,
    int64_t q_base, const SuffixMatchOptions& options = SuffixMatchOptions());

/// Process-wide count of SuffixMatch calls whose candidate list was
/// truncated at max_candidates. Monotone; the engine publishes deltas to
/// the metrics registry (the text layer cannot depend on obs).
int64_t SuffixCandidatesTruncatedTotal();

/// \brief Suffix automaton over a byte string; exposed for testing and for
/// longest-common-substring queries.
///
/// Flat layout: a build makes a fixed number of heap allocations, none per
/// state. States live in one array, and each state carries its first edge
/// inline; the rest of its edges sit in one arena per automaton as an
/// intrusive singly linked list, newest first. A clone copies its source's
/// edges within the arena. The root, which can fan out to all 256 bytes and
/// is re-entered on every match reset, keeps a dense table instead. Both
/// arrays are reserved up front at their bounds (see the constructor), so
/// a build never reallocates.
class SuffixAutomaton {
 public:
  explicit SuffixAutomaton(std::string_view text);

  /// Length of the longest substring of the indexed text that is also a
  /// substring of `query`.
  int64_t LongestCommonSubstring(std::string_view query) const;

  /// Streams `query`, invoking `sink(query_end, indexed_end, length)` for
  /// every locally-maximal common substring with length >= min_length.
  /// Positions are inclusive end indices into query / indexed text.
  template <typename Sink>
  void ScanMaximalMatches(std::string_view query, int64_t min_length,
                          Sink&& sink) const;

  size_t NumStates() const { return states_.size(); }

 private:
  struct State {
    int32_t len = 0;
    int32_t link = -1;
    int32_t first_end = -1;  // minimal end position (inclusive) in the text
    int32_t to0 = -1;        // the inline edge's target, -1 = no edges
    int32_t edges = -1;      // head of the arena list of the other edges
    unsigned char byte0 = 0;
  };
  struct Edge {
    int32_t to;
    int32_t next;  // next edge of the same state, -1 ends the list
    unsigned char byte;
  };

 public:
  /// Bytes a build reserves per indexed byte: two states and one arena
  /// edge. Callers charge an automaton's working set with it.
  static constexpr int64_t kBytesPerIndexedChar =
      2 * static_cast<int64_t>(sizeof(State)) +
      static_cast<int64_t>(sizeof(Edge));

 private:
  int32_t Transition(int32_t state, unsigned char c) const;
  /// The slot holding `state`'s transition on `c`, or null if it has none.
  int32_t* TransitionSlot(int32_t state, unsigned char c);
  /// Adds the transition `state` --c--> `to`; `state` has none on `c`.
  void AddTransition(int32_t state, unsigned char c, int32_t to);
  /// Copies the arena list at `head` to fresh slots, in order; returns the
  /// copy's head.
  int32_t CopyEdges(int32_t head);

  std::vector<State> states_;
  std::vector<Edge> edges_;             // the arena: non-inline edges
  std::array<int32_t, 256> root_next_;  // state 0's edges, O(1) lookup
  simd::ByteSet root_alphabet_;         // bytes with a root transition
};

inline int32_t SuffixAutomaton::Transition(int32_t state,
                                           unsigned char c) const {
  if (state == 0) return root_next_[c];
  const State& s = states_[static_cast<size_t>(state)];
  // Without an inline edge the list is empty too, and to0 is -1.
  if (s.byte0 == c) return s.to0;
  for (int32_t e = s.edges; e >= 0;) {
    const Edge& edge = edges_[static_cast<size_t>(e)];
    if (edge.byte == c) return edge.to;
    e = edge.next;
  }
  return -1;
}

template <typename Sink>
void SuffixAutomaton::ScanMaximalMatches(std::string_view query,
                                         int64_t min_length,
                                         Sink&& sink) const {
  int32_t state = 0;
  int64_t length = 0;
  int32_t prev_state = 0;
  int64_t prev_length = 0;
  const int64_t n = static_cast<int64_t>(query.size());
  for (int64_t i = 0; i < n; ++i) {
    unsigned char c = static_cast<unsigned char>(query[static_cast<size_t>(i)]);
    while (state != 0 && Transition(state, c) < 0) {
      state = states_[static_cast<size_t>(state)].link;
      length = states_[static_cast<size_t>(state)].len;
    }
    int32_t to = Transition(state, c);
    bool root_miss = false;
    if (to >= 0) {
      state = to;
      ++length;
    } else {
      // The while loop above only stops on a missing transition when it
      // has fallen all the way back to the root, so state == 0 here.
      length = 0;
      root_miss = true;
    }
    // The match ending at i-1 was locally maximal iff it could not be
    // extended by query[i].
    if (prev_length >= min_length && length != prev_length + 1) {
      sink(i - 1, states_[static_cast<size_t>(prev_state)].first_end,
           prev_length);
    }
    prev_state = state;
    prev_length = length;
    if (root_miss && min_length > 0 && i + 1 < n) {
      // Batched character classing: while the next bytes have no root
      // transition the automaton stays parked at the root with length 0
      // and (min_length > 0) nothing can be sunk, so skip the whole run
      // with one SIMD membership scan. Behavior-preserving by the same
      // argument the per-byte loop would make, one byte at a time.
      size_t skip = simd::FindFirstInSet(
          static_cast<const unsigned char*>(
              static_cast<const void*>(query.data())) +
              i + 1,
          static_cast<size_t>(n - i - 1), root_alphabet_);
      i += static_cast<int64_t>(skip);  // loop ++i lands on the next member
    }
  }
  if (prev_length >= min_length) {
    sink(n - 1, states_[static_cast<size_t>(prev_state)].first_end,
         prev_length);
  }
}

}  // namespace delex

#endif  // DELEX_TEXT_SUFFIX_MATCHER_H_
