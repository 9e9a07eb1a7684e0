#ifndef DELEX_EXTRACT_EXTRACTOR_H_
#define DELEX_EXTRACT_EXTRACTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/value.h"

namespace delex {

/// \brief Aggregate work counters for one extractor instance.
///
/// `chars_processed` is the deterministic cost proxy used by tests and the
/// cost model (wall-clock is used for the figures; counters make invariants
/// assertable without timing flakiness).
struct ExtractStats {
  int64_t calls = 0;
  int64_t chars_processed = 0;
  int64_t mentions_emitted = 0;

  void Reset() { *this = ExtractStats(); }
  ExtractStats& operator+=(const ExtractStats& other) {
    calls += other.calls;
    chars_processed += other.chars_processed;
    mentions_emitted += other.mentions_emitted;
    return *this;
  }
};

/// \brief An IE blackbox (Definition 1 / Definition 4).
///
/// Contract required for recycling correctness (Theorem 1):
///  - **Per-region purity**: the output depends only on `region_text` and
///    `context` — never on global state, the page outside the region, or
///    the absolute position (`region_base` is used only to emit absolute
///    span coordinates).
///  - **Translation invariance**: Extract(t, b, c) equals Extract(t, 0, c)
///    with every span shifted by b.
///  - **Honest scope α** (Definition 2): every output tuple's span envelope
///    is shorter than `scope()` characters.
///  - **Honest context β** (Definition 3): whether a mention is produced
///    depends only on the text within `context_width()` characters of the
///    mention's span envelope (plus `context`).
///
/// Violating honesty does not crash Delex, it silently breaks Theorem 1 —
/// which is exactly why the test suite re-verifies Delex output against
/// from-scratch output for every extractor shipped here.
class Extractor {
 public:
  virtual ~Extractor() = default;

  /// Applies the blackbox to `region_text`, the page substring starting at
  /// absolute offset `region_base`. Returns the (b_1 ... b_m) output parts;
  /// span values are absolute page coordinates.
  virtual std::vector<Tuple> Extract(std::string_view region_text,
                                     int64_t region_base,
                                     const Tuple& context) const = 0;

  /// Scope α in characters (Definition 2).
  virtual int64_t Scope() const = 0;

  /// Context β in characters (Definition 3).
  virtual int64_t ContextWidth() const = 0;

  /// The blackbox's splitter (Doleschal et al., "Split-Correctness in
  /// Information Extraction"): the *tiles* of `region_text`, in absolute
  /// page coordinates, or nothing when the blackbox declares no splitter
  /// (the default).
  ///
  /// A declaring blackbox promises, for every region text:
  ///  - the tiles are non-empty and partition the region, in order;
  ///  - every output tuple's span envelope is non-empty and lies inside
  ///    one tile;
  ///  - Extract on any run of consecutive tiles returns exactly the
  ///    full-region outputs whose envelopes lie inside that run.
  ///
  /// Delex then re-extracts only whole runs of tiles that an edit touches
  /// instead of an α + β window around it (DeriveRegionsTagged). Tiling
  /// must be cheap: it does no blackbox work.
  virtual std::vector<TextSpan> Tiles(std::string_view region_text,
                                      int64_t region_base) const {
    (void)region_text;
    (void)region_base;
    return {};
  }

  /// Number of output attributes (m in Definition 4).
  virtual int64_t OutputArity() const = 0;

  virtual const std::string& Name() const = 0;

  ExtractStats& stats() const { return stats_; }

 protected:
  /// Subclasses call this once per Extract to account their work.
  ///
  /// One extractor instance is shared by every page-evaluation worker, so
  /// the counters are bumped with relaxed atomics: exact totals without
  /// serializing Extract. Readers (tests, the cost model's calibration)
  /// only look at the counters while no extraction is in flight.
  void Account(int64_t chars, int64_t mentions) const {
    std::atomic_ref<int64_t>(stats_.calls)
        .fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref<int64_t>(stats_.chars_processed)
        .fetch_add(chars, std::memory_order_relaxed);
    std::atomic_ref<int64_t>(stats_.mentions_emitted)
        .fetch_add(mentions, std::memory_order_relaxed);
  }

 private:
  mutable ExtractStats stats_;
};

using ExtractorPtr = std::shared_ptr<const Extractor>;

/// \brief Deterministic CPU burner: performs `units` rounds of integer
/// hashing.
///
/// Real IE blackboxes (CRF inference, deep rule cascades) cost far more per
/// character than our synthetic rules; BurnWork lets each extractor carry a
/// calibrated per-character cost so speedup *shapes* match the paper's
/// measurements at laptop scale. Returns a value that must be consumed to
/// defeat dead-code elimination.
uint64_t BurnWork(int64_t units);

}  // namespace delex

#endif  // DELEX_EXTRACT_EXTRACTOR_H_
