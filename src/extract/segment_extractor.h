#ifndef DELEX_EXTRACT_SEGMENT_EXTRACTOR_H_
#define DELEX_EXTRACT_SEGMENT_EXTRACTOR_H_

#include <string>

#include "extract/extractor.h"

namespace delex {

/// \brief Options for SegmentExtractor.
struct SegmentOptions {
  /// Delimiter string separating records (e.g., "\n\n" for paragraphs,
  /// "== " for wiki sections).
  std::string delimiter = "\n\n";

  /// Only emit segments that start with this marker (empty = all
  /// segments). Lets one blackbox pick out, say, abstract paragraphs.
  std::string required_prefix;

  /// Declared scope α: segments are emitted only if strictly shorter, so
  /// the declaration is honest by construction. A segment running past
  /// α - 1 characters without hitting a delimiter is truncated to α - 1
  /// (the truncation decision only reads the segment body + β window).
  int64_t max_segment_length = 8192;

  /// Calibrated per-character CPU cost (see BurnWork).
  int64_t work_per_char = 10;
};

/// \brief Rule-based blackbox that extracts structural regions
/// (paragraphs, sections, list items) as spans.
///
/// This is the archetype of the *lower* blackbox in an IE chain
/// (extractAbstract in Figure 2): it produces large spans that later units
/// extract fine-grained mentions from. Its α is large (the longest
/// paragraph), which is exactly why reuse at whole-program granularity is
/// poor and per-unit reuse (Delex) wins.
///
/// β = delimiter length: whether [a, b) is emitted depends on the
/// delimiter immediately before a, the delimiter (or truncation rule)
/// at b, and the absence of delimiters inside — all within the mention
/// plus a delimiter-width window.
///
/// Split-correct for its own delimiter: each tile is a segment plus the
/// delimiter after it, exactly as Extract's left-to-right scan finds them,
/// and each emitted mention is decided by its tile alone. Extract on a run
/// of consecutive tiles therefore re-finds the same tiles and emits the
/// same mentions, even where delimiter characters repeat ("\n\n\n").
class SegmentExtractor : public Extractor {
 public:
  SegmentExtractor(std::string name, SegmentOptions options = SegmentOptions());

  std::vector<Tuple> Extract(std::string_view region_text, int64_t region_base,
                             const Tuple& context) const override;
  std::vector<TextSpan> Tiles(std::string_view region_text,
                              int64_t region_base) const override;
  int64_t Scope() const override { return options_.max_segment_length; }
  // +1: the truncation decision ("no delimiter within the next α chars")
  // reads one character past the truncated mention's β-window.
  int64_t ContextWidth() const override {
    return static_cast<int64_t>(options_.delimiter.size()) + 1;
  }
  int64_t OutputArity() const override { return 1; }
  const std::string& Name() const override { return name_; }

 private:
  /// One step of the scan: the tile starting at `start` has the segment
  /// [start, *segment_end) and ends at the returned offset (past the
  /// delimiter, or at the end of `text`).
  int64_t ScanTile(std::string_view text, int64_t start,
                   int64_t* segment_end) const;

  std::string name_;
  SegmentOptions options_;
};

}  // namespace delex

#endif  // DELEX_EXTRACT_SEGMENT_EXTRACTOR_H_
