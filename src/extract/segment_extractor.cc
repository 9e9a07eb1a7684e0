#include "extract/segment_extractor.h"

#include "common/logging.h"

namespace delex {

SegmentExtractor::SegmentExtractor(std::string name, SegmentOptions options)
    : name_(std::move(name)), options_(std::move(options)) {
  DELEX_CHECK_MSG(!options_.delimiter.empty(), "delimiter must be non-empty");
}

int64_t SegmentExtractor::ScanTile(std::string_view text, int64_t start,
                                   int64_t* segment_end) const {
  const std::string& delim = options_.delimiter;
  size_t hit = text.find(delim, static_cast<size_t>(start));
  if (hit == std::string_view::npos) {
    *segment_end = static_cast<int64_t>(text.size());
    return *segment_end;
  }
  *segment_end = static_cast<int64_t>(hit);
  return *segment_end + static_cast<int64_t>(delim.size());
}

std::vector<Tuple> SegmentExtractor::Extract(std::string_view region_text,
                                             int64_t region_base,
                                             const Tuple& context) const {
  (void)context;
  std::vector<Tuple> out;
  const int64_t n = static_cast<int64_t>(region_text.size());
  uint64_t burn_guard = BurnWork(options_.work_per_char * n);

  int64_t start = 0;
  while (start < n) {
    int64_t end = 0;
    const int64_t next = ScanTile(region_text, start, &end);
    TextSpan segment(start, end);
    // Enforce the declared α. An overlong segment contributes only its
    // first α-1 characters — never follow-up chunks, whose existence would
    // depend on text α characters away (dishonest β).
    if (segment.length() >= options_.max_segment_length) {
      segment.end = segment.start + options_.max_segment_length - 1;
    }
    // The prefix test reads the segment alone, so each mention is decided
    // by its own tile.
    if (!segment.empty() &&
        region_text
            .substr(static_cast<size_t>(segment.start),
                    static_cast<size_t>(segment.length()))
            .starts_with(options_.required_prefix)) {
      out.push_back({Value(TextSpan(region_base + segment.start,
                                    region_base + segment.end))});
    }
    start = next;
  }
  (void)burn_guard;
  Account(n, static_cast<int64_t>(out.size()));
  return out;
}

std::vector<TextSpan> SegmentExtractor::Tiles(std::string_view region_text,
                                              int64_t region_base) const {
  std::vector<TextSpan> tiles;
  const int64_t n = static_cast<int64_t>(region_text.size());
  int64_t start = 0;
  while (start < n) {
    int64_t end = 0;
    const int64_t next = ScanTile(region_text, start, &end);
    tiles.emplace_back(region_base + start, region_base + next);
    start = next;
  }
  return tiles;
}

}  // namespace delex
