#ifndef DELEX_STORAGE_SNAPSHOT_H_
#define DELEX_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/mem.h"
#include "storage/io_stats.h"

namespace delex {

/// \brief One retrieved data page: a URL plus its text content.
///
/// `did` is the document id, unique within a snapshot; pages at the same
/// URL in different snapshots generally have different dids.
///
/// `content_hash` is the FNV-1a digest of `content`, computed once when
/// the page enters a Snapshot: by AddPage for one page, and for a whole
/// snapshot at once (Fnv1a64Batch, in parallel chunks) by ReadSnapshot and
/// ReindexUrls. The
/// engine's whole-page fast path compares digests of consecutive versions
/// of a URL before falling back to a byte compare, so the 96–98 % of
/// DBLife pages that are byte-identical between snapshots are detected in
/// O(1) per page pair instead of O(page) hashing on every run. The digest
/// is also an on-disk value: `.idx` entries and result caches guard on it.
///
/// A page owns its text. Shards do not copy pages; they index them
/// (SnapshotView).
struct Page {
  int64_t did = 0;
  std::string url;
  std::string content;
  uint64_t content_hash = 0;
};

/// \brief One corpus snapshot P_i: the ordered set of pages retrieved at
/// crawl time i.
///
/// Order matters: §5.2's single-pass algorithm processes snapshot n+1 in
/// exactly the page order of snapshot n, so reuse files are scanned
/// strictly sequentially.
class Snapshot {
 public:
  Snapshot() = default;

  /// Appends a page, assigning it the next document id.
  Page& AddPage(std::string url, std::string content);

  /// Appends a verbatim copy of `page`, keeping its did and content hash.
  /// A subsequence of a did-ordered snapshot built this way is itself a
  /// valid snapshot with the original dids: reuse files only require dids
  /// to be monotone in append order. Shards do not use it (they are
  /// SnapshotViews); it serves callers that need a standalone
  /// sub-snapshot, such as refresh_bench's one-page reference runs and
  /// tests that copy a shard's pages out.
  Page& AddExistingPage(const Page& page);

  const std::vector<Page>& pages() const { return pages_; }
  std::vector<Page>& mutable_pages() { return pages_; }
  size_t NumPages() const { return pages_.size(); }

  /// Total content bytes across pages.
  int64_t TotalBytes() const;
  int64_t TotalBlocks() const { return (TotalBytes() + kBlockSize - 1) / kBlockSize; }

  /// Index of the page at `url`, if present.
  std::optional<size_t> FindByUrl(const std::string& url) const;

  /// Rebuilds the url index and page content digests (call after mutating
  /// pages in place). A large snapshot is hashed in byte-balanced chunks
  /// on a temporary pool, one Fnv1a64Batch pass per chunk, while this
  /// thread rebuilds the url index.
  void ReindexUrls();

 private:
  // Memory accounting (obs layer 4): page text + urls, re-stated on every
  // append and on ReindexUrls. In-place edits via mutable_pages() drift
  // until the next ReindexUrls — the same call that already repairs the
  // url index and digests.
  obs::ScopedMemCharge mem_{obs::MemTag::kSnapshot};
  std::vector<Page> pages_;
  std::unordered_map<std::string, size_t> by_url_;
};

/// \brief Some of one snapshot's pages, by index, in snapshot order.
///
/// A shard's share of a snapshot: the pages stay where they are, and the
/// view lists their indexes. The snapshot must outlive the view.
class SnapshotView {
 public:
  /// Every page of `snapshot`. Implicit: a snapshot is the view of all of
  /// its pages, so whole-snapshot callers pass a Snapshot unchanged.
  SnapshotView(const Snapshot& snapshot);  // NOLINT(runtime/explicit)
  SnapshotView(Snapshot&&) = delete;  // would dangle

  /// The pages of `snapshot` at `indexes`, which must ascend.
  SnapshotView(const Snapshot& snapshot, std::vector<size_t> indexes);

  const Snapshot& snapshot() const { return *snapshot_; }
  size_t NumPages() const { return indexes_.size(); }
  /// The view's `i`-th page.
  const Page& page(size_t i) const { return snapshot_->pages()[indexes_[i]]; }
  /// Snapshot index of each page of the view.
  const std::vector<size_t>& indexes() const { return indexes_; }

  /// Content bytes and blocks of the view's pages alone.
  int64_t TotalBytes() const;
  int64_t TotalBlocks() const { return (TotalBytes() + kBlockSize - 1) / kBlockSize; }

 private:
  const Snapshot* snapshot_;
  std::vector<size_t> indexes_;
};

/// \brief Writes a snapshot to a record file at `path`.
Status WriteSnapshot(const Snapshot& snapshot, const std::string& path,
                     IoStats* stats = nullptr);

/// \brief Reads a snapshot back from `path`.
///
/// Each record is decoded where the reader buffered it, with the checks of
/// DecodeTuple and the page shape ({int64 did, string url, string
/// content}); its two strings are copied once, into the Page. Any
/// malformed record fails the read with Status::Corruption. Digests are
/// computed after the last record, for all pages in one batch.
Result<Snapshot> ReadSnapshot(const std::string& path, IoStats* stats = nullptr);

}  // namespace delex

#endif  // DELEX_STORAGE_SNAPSHOT_H_
