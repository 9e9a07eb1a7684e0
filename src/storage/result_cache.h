#ifndef DELEX_STORAGE_RESULT_CACHE_H_
#define DELEX_STORAGE_RESULT_CACHE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "obs/mem.h"
#include "storage/io_stats.h"
#include "storage/page_groups.h"
#include "storage/record_file.h"

namespace delex {

/// \brief One page's cached final result rows, framed but not decoded.
///
/// `bytes` holds whole framed records (8-byte length prefix + encoded
/// did-stripped row each), exactly as they sit in the cache file. A view:
/// it points into the ResultRun it came from.
struct ResultPageSlice {
  std::string_view bytes;
  int64_t n_rows = 0;
};

/// \brief Consecutive pages' cached rows lifted out of a result cache
/// undecoded — the result half of the identical-page passthrough. Produced
/// by ResultCacheReader::BeginRun / LiftPage / EndRun as byte ranges, read
/// back by LoadRun, consumed by ResultCacheWriter::CommitRun. A page alone
/// is the run of one.
struct ResultRun {
  /// One range per stretch of adjacent pages' rows (old page headers
  /// between them included), and those ranges read back to back.
  std::vector<FileRange> ranges;
  std::string bytes;
  bool loaded = false;

  struct Page {
    int64_t offset = 0;  ///< into bytes
    int64_t length = 0;
    int64_t n_rows = 0;
  };
  std::vector<Page> pages;

  /// Page `j`'s rows, once loaded; views into this run.
  ResultPageSlice Slice(size_t j) const;
};

/// \brief Writer for the per-generation page result cache
/// (`results.gen<N>`).
///
/// The identical-page fast path skips plan evaluation entirely, so the
/// final result rows a page contributed must themselves be recoverable
/// from the previous generation. This file stores, per page in snapshot
/// order, the page's final rows with the leading did stripped: rows are
/// did-free (spans are page-local already), so a byte-identical page's
/// cached rows are valid verbatim in the next generation — copied raw and
/// re-prefixed with the new did on decode.
///
/// Layout mirrors the reuse files (format v2): magic record, then per page
/// a header record {did, n_rows} followed by n_rows encoded rows. Every
/// page gets a header even with zero rows, so a forward scan can tell
/// "page produced nothing" from "page group missing".
class ResultCacheWriter {
 public:
  ResultCacheWriter() = default;

  Status Open(const std::string& path);

  /// Appends one page's rows. Each row must carry the page's did as its
  /// first value (the shape RunSnapshot returns); the did is stripped on
  /// encode to keep the stored bytes relocatable.
  Status CommitPage(int64_t did, const std::vector<Tuple>& rows_with_did);

  /// Appends pages [first, first + dids.size()) of `run` under `dids`,
  /// each page's rows verbatim — no decode, no re-encode; only the headers
  /// are fresh.
  Status CommitRun(const ResultRun& run, size_t first,
                   std::span<const int64_t> dids);

  Status Close();

  const IoStats& stats() const { return writer_.stats(); }

 private:
  RecordWriter writer_;
  std::string scratch_;
  obs::ScopedMemCharge mem_{obs::MemTag::kResultCache};
};

/// \brief Forward-scan reader over a ResultCacheWriter file.
///
/// Same discipline as UnitReuseReader: pages are lifted in snapshot order,
/// the scan never rewinds, and a passed or absent page simply reports
/// `*found = false` (callers then fall back to full evaluation — degrade,
/// never miscompute).
class ResultCacheReader {
 public:
  ResultCacheReader() = default;

  /// Opens the cache and checks its magic record.
  Status Open(const std::string& path);

  /// Starts lifting a run of pages into `*run` (cleared).
  void BeginRun(ResultRun* run);

  /// Scans forward to page `did` and lifts its framed rows into the run
  /// as a byte range, walking their framing without decoding or copying
  /// them.
  Status LiftPage(int64_t did, bool* found);

  /// Ends the run after its first `keep` pages; later lifted pages leave
  /// the run.
  void EndRun(size_t keep);

  /// Reads `run`'s ranges back into its bytes (positioned reads, safe from
  /// any thread while the reader is open). A no-op once loaded.
  Status LoadRun(ResultRun* run) const;

  Status Close();

  IoStats stats() const { return scanner_.reader().stats(); }

 private:
  PageGroupScanner scanner_;
  ResultRun* run_ = nullptr;
  obs::ScopedMemCharge mem_{obs::MemTag::kResultCache};
};

/// \brief Decodes a slice into result rows, prefixing each with `did`, and
/// appends them to `*rows` — the recovery step that turns a previous
/// generation's cached bytes into this generation's result tuples. On
/// error `*rows` keeps the rows it held before.
Status DecodeResultSlice(const ResultPageSlice& slice, int64_t did,
                         std::vector<Tuple>* rows);

}  // namespace delex

#endif  // DELEX_STORAGE_RESULT_CACHE_H_
