#ifndef DELEX_STORAGE_PAGE_GROUPS_H_
#define DELEX_STORAGE_PAGE_GROUPS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/record_file.h"

namespace delex {

/// Page header record shared by the reuse files and the result cache:
/// {did, record count}, fixed-width little endian.
void EncodePageHeader(int64_t did, int64_t count, std::string* out);
bool DecodePageHeader(std::string_view data, int64_t* did, int64_t* count);

/// A page header as it lies in a file: length prefix and record.
inline constexpr int64_t kFramedPageHeaderBytes = 8 + 16;

/// True when `bytes` holds, at `offset`, a framed page header {did, count}.
bool PageHeaderAt(std::string_view bytes, int64_t offset, int64_t did,
                  int64_t count);

/// \brief A stretch of a record file.
struct FileRange {
  int64_t offset = 0;
  int64_t length = 0;
};

/// \brief Where one lifted page group lies.
struct LiftedGroup {
  int64_t offset = 0;  ///< in the run's bytes, once loaded
  int64_t length = 0;  ///< framed bytes of the group's records
  int64_t count = 0;   ///< records, from the page header
};

/// Total bytes of `ranges`.
int64_t RangeBytes(const std::vector<FileRange>& ranges);

/// Shortens `ranges`, read back to back, to their first `length` bytes.
void TrimRanges(int64_t length, std::vector<FileRange>* ranges);

/// Reads `ranges` back to back into `*bytes` (positioned reads).
Status LoadRanges(const RecordReader& reader,
                  const std::vector<FileRange>& ranges, std::string* bytes);

/// \brief Forward scan over a record file of page groups: after the magic
/// record, each page is a header record {did, count} followed by `count`
/// records. The reuse files (.in, .out) and the result cache share this
/// layout and this scan.
///
/// Pages are sought in increasing did order and the scan never rewinds
/// (§5.2). Groups of passed dids are skipped without decoding them; a
/// sought did whose group is absent (a later page's header comes first)
/// reports not found and leaves that header pending for the next seek.
///
/// A run lifts consecutive pages' groups as byte ranges of the file,
/// without decoding or copying them: one range per stretch of adjacent
/// groups, each group with its page header. A passed page inside a run
/// starts a new range, so a run never holds the groups of pages it
/// skipped. LoadRanges reads a run's ranges back when it commits.
class PageGroupScanner {
 public:
  RecordReader& reader() { return reader_; }
  const RecordReader& reader() const { return reader_; }

  /// Advances to page `did`'s header. On *found, its group is next:
  /// count() records, read with NextRecord and closed with EndGroup.
  Status Seek(int64_t did, bool* found);
  int64_t count() const { return pending_count_; }
  Status NextRecord(std::string_view* record);
  void EndGroup() { header_pending_ = false; }

  /// File offset of the next page header the scan reaches: the pending
  /// one, if any.
  int64_t NextHeaderOffset() const {
    return reader_.Offset() - (header_pending_ ? kFramedPageHeaderBytes : 0);
  }
  /// No header is pending, or the pending one is page `did`'s.
  bool PendingIsNoneOr(int64_t did) const {
    return !header_pending_ || pending_did_ == did;
  }

  /// Starts a run whose ranges go to `*ranges` (cleared).
  void BeginRun(std::vector<FileRange>* ranges);
  /// Reads past the group Seek found and adds it to the run: `length`
  /// bytes, as a validated index gives them, or with `length` < 0 a walk
  /// of its count() records.
  Status Lift(int64_t length, LiftedGroup* group);
  /// Adds the group an index places at the next header — its `count`
  /// records in `length` bytes at file offset `offset` — to the run
  /// without reading it, and moves the scan past it.
  Status LiftAt(int64_t offset, int64_t length, int64_t count,
                LiftedGroup* group);
  /// Ends the run, keeping the first `keep_bytes` of its ranges (the end
  /// of the last group the run keeps).
  void EndRun(int64_t keep_bytes);

 private:
  /// Adds the group at file offset `offset`, header included, to the run.
  void AddToRun(int64_t offset, int64_t length, int64_t count,
                LiftedGroup* group);

  RecordReader reader_;
  bool done_ = false;
  bool header_pending_ = false;
  int64_t pending_did_ = 0;
  int64_t pending_count_ = 0;
  std::vector<FileRange>* run_ranges_ = nullptr;
  int64_t run_bytes_ = 0;  // bytes of the run's ranges
};

}  // namespace delex

#endif  // DELEX_STORAGE_PAGE_GROUPS_H_
