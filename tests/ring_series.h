#ifndef DELEX_TESTS_RING_SERIES_H_
#define DELEX_TESTS_RING_SERIES_H_

// A plan and a snapshot series that fill the engine's page ring: a fresh
// page that extracts slowly near the front of each snapshot, with
// thousands of identical pages behind it. Shared by the pipeline tests
// and the `pipeline` memory-tag test.

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/span.h"
#include "common/value.h"
#include "extract/extractor.h"
#include "storage/snapshot.h"
#include "xlog/plan.h"

namespace delex {

inline constexpr std::string_view kSlowMarker = "SLOW";
inline constexpr std::string_view kThrowMarker = "BOOM";

/// Emits one span per 'a' of its region (scope 1, no context), so reuse
/// has mentions to copy. A region holding kSlowMarker first sleeps, long
/// enough for the reader to fill the ring with the identical pages behind
/// it; if it also holds kThrowMarker, the extractor then throws.
class MarkerExtractor final : public Extractor {
 public:
  std::vector<Tuple> Extract(std::string_view region_text, int64_t region_base,
                             const Tuple& /*context*/) const override {
    if (region_text.find(kSlowMarker) != std::string_view::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      if (region_text.find(kThrowMarker) != std::string_view::npos) {
        throw std::runtime_error("marker page");
      }
    }
    std::vector<Tuple> out;
    for (size_t i = 0; i < region_text.size(); ++i) {
      if (region_text[i] != 'a') continue;
      const int64_t at = region_base + static_cast<int64_t>(i);
      out.push_back(Tuple{TextSpan(at, at + 1)});
    }
    return out;
  }
  int64_t Scope() const override { return 1; }
  int64_t ContextWidth() const override { return 0; }
  int64_t OutputArity() const override { return 1; }
  const std::string& Name() const override { return name_; }

 private:
  std::string name_ = "marker";
};

inline xlog::PlanNodePtr MarkerPlan() {
  auto scan = std::make_shared<xlog::PlanNode>();
  scan->schema = {"d"};
  auto ie = std::make_shared<xlog::PlanNode>();
  ie->kind = xlog::PlanKind::kIE;
  ie->extractor = std::make_shared<MarkerExtractor>();
  ie->input_col = 0;
  ie->children = {scan};
  ie->schema = {"d", "x"};
  xlog::AssignIds(ie);
  return ie;
}

/// Three snapshots of `num_pages` short pages. Most pages are identical
/// from one snapshot to the next (the fast path), every 29th is edited in
/// each, and page 3 is a fresh slow page (a new URL, so it extracts from
/// scratch). With `throw_at` > 0, page `throw_at` of the last snapshot is
/// a fresh page that sleeps and then throws.
inline std::vector<Snapshot> RingSeries(size_t num_pages, size_t throw_at) {
  std::vector<Snapshot> series(3);
  for (size_t s = 0; s < series.size(); ++s) {
    const std::string gen = std::to_string(s);
    for (size_t i = 0; i < num_pages; ++i) {
      const std::string index = std::to_string(i);
      if (i == 3) {
        series[s].AddPage(std::string("slow").append(gen),
                          std::string(kSlowMarker).append(" a").append(gen));
      } else if (throw_at > 0 && i == throw_at && s + 1 == series.size()) {
        series[s].AddPage("boom", std::string(kSlowMarker)
                                      .append(" ")
                                      .append(kThrowMarker)
                                      .append(" a"));
      } else {
        std::string content = std::string("page ").append(index).append(
            " banana bandana cabana alabama panama canal avalanche");
        if (i % 29 == 0) content.append(" rev").append(gen).append(" data");
        series[s].AddPage(std::string("u").append(index), content);
      }
    }
  }
  return series;
}

}  // namespace delex

#endif  // DELEX_TESTS_RING_SERIES_H_
