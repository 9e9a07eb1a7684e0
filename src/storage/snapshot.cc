#include "storage/snapshot.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <thread>

#include "common/hash.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/value.h"
#include "storage/record_file.h"

namespace delex {

namespace {
int64_t PageFootprint(const Page& page) {
  return static_cast<int64_t>(sizeof(Page) + page.url.size() +
                              page.content.size());
}

/// Decodes one page record, the EncodeTuple form of {did, url, content},
/// where it lies. DecodeTuple's checks, plus the shape: three fields of
/// kinds int64, string, string. The two strings are copied once, into
/// `page`.
Status DecodePage(std::string_view record, Page* page) {
  size_t offset = 0;
  DELEX_ASSIGN_OR_RETURN(uint64_t count, DecodeTupleCount(record, &offset));
  if (count != 3) return Status::Corruption("bad page record");
  DELEX_ASSIGN_OR_RETURN(int64_t did, DecodeInt64(record, &offset));
  DELEX_ASSIGN_OR_RETURN(std::string_view url,
                         DecodeStringView(record, &offset));
  DELEX_ASSIGN_OR_RETURN(std::string_view content,
                         DecodeStringView(record, &offset));
  page->did = did;
  page->url.assign(url);
  page->content.assign(content);
  return Status::OK();
}
}  // namespace

Page& Snapshot::AddPage(std::string url, std::string content) {
  Page page;
  page.did = static_cast<int64_t>(pages_.size());
  page.url = std::move(url);
  page.content = std::move(content);
  page.content_hash = Fnv1a64(page.content);
  by_url_[page.url] = pages_.size();
  mem_.Add(PageFootprint(page));
  pages_.push_back(std::move(page));
  return pages_.back();
}

Page& Snapshot::AddExistingPage(const Page& page) {
  by_url_[page.url] = pages_.size();
  mem_.Add(PageFootprint(page));
  pages_.push_back(page);
  return pages_.back();
}

int64_t Snapshot::TotalBytes() const {
  int64_t total = 0;
  for (const Page& p : pages_) total += static_cast<int64_t>(p.content.size());
  return total;
}

std::optional<size_t> Snapshot::FindByUrl(const std::string& url) const {
  auto it = by_url_.find(url);
  if (it == by_url_.end()) return std::nullopt;
  return it->second;
}

void Snapshot::ReindexUrls() {
  std::vector<std::string_view> contents;
  contents.reserve(pages_.size());
  int64_t content_bytes = 0;
  for (const Page& page : pages_) {
    contents.push_back(page.content);
    content_bytes += static_cast<int64_t>(page.content.size());
  }
  std::vector<uint64_t> digests(pages_.size());
  // Byte-balanced chunks of at least kMinChunkBytes, at most one per
  // hardware thread: starting a thread costs about 50 µs, hashing a MiB
  // about 0.5 ms. Each chunk is one Fnv1a64Batch call, so the digests are
  // the serial pass's, bit for bit.
  constexpr int64_t kMinChunkBytes = int64_t{1} << 20;
  const int64_t chunks = std::clamp<int64_t>(
      content_bytes / kMinChunkBytes, 1,
      std::max<int64_t>(std::thread::hardware_concurrency(), 1));
  std::unique_ptr<ThreadPool> pool;
  if (chunks > 1) pool = std::make_unique<ThreadPool>(static_cast<int>(chunks));
  {
    TaskGroup tasks(pool.get(), static_cast<size_t>(chunks));
    size_t begin = 0;
    int64_t hashed = 0;
    for (int64_t c = 1; c <= chunks; ++c) {
      const int64_t target = content_bytes * c / chunks;
      size_t end = begin;
      while (end < pages_.size() && (hashed < target || c == chunks)) {
        hashed += static_cast<int64_t>(contents[end].size());
        ++end;
      }
      const std::span<const std::string_view> in(contents.data() + begin,
                                                 end - begin);
      const std::span<uint64_t> out(digests.data() + begin, end - begin);
      tasks.Submit([in, out]() {
        Fnv1a64Batch(in, out);
        return Status::OK();
      });
      begin = end;
    }
    // The url index is rebuilt here while the pool hashes.
    by_url_.clear();
    by_url_.reserve(pages_.size());
    for (size_t i = 0; i < pages_.size(); ++i) by_url_[pages_[i].url] = i;
    DELEX_CHECK(tasks.Wait().ok());
  }
  int64_t footprint = 0;
  for (size_t i = 0; i < pages_.size(); ++i) {
    pages_[i].content_hash = digests[i];
    footprint += PageFootprint(pages_[i]);
  }
  mem_.Set(footprint);
}

SnapshotView::SnapshotView(const Snapshot& snapshot)
    : snapshot_(&snapshot), indexes_(snapshot.NumPages()) {
  std::iota(indexes_.begin(), indexes_.end(), size_t{0});
}

SnapshotView::SnapshotView(const Snapshot& snapshot,
                           std::vector<size_t> indexes)
    : snapshot_(&snapshot), indexes_(std::move(indexes)) {}

int64_t SnapshotView::TotalBytes() const {
  int64_t total = 0;
  for (size_t i : indexes_) {
    total += static_cast<int64_t>(snapshot_->pages()[i].content.size());
  }
  return total;
}

Status WriteSnapshot(const Snapshot& snapshot, const std::string& path,
                     IoStats* stats) {
  RecordWriter writer;
  DELEX_RETURN_NOT_OK(writer.Open(path));
  std::string record;
  for (const Page& page : snapshot.pages()) {
    record.clear();
    EncodeTuple({page.did, page.url, page.content}, &record);
    DELEX_RETURN_NOT_OK(writer.Append(record));
  }
  DELEX_RETURN_NOT_OK(writer.Close());
  if (stats != nullptr) *stats += writer.stats();
  return Status::OK();
}

Result<Snapshot> ReadSnapshot(const std::string& path, IoStats* stats) {
  RecordReader reader;
  DELEX_RETURN_NOT_OK(reader.Open(path));
  Snapshot snapshot;
  std::vector<Page>& pages = snapshot.mutable_pages();
  while (true) {
    std::string_view record;
    bool at_end = false;
    DELEX_RETURN_NOT_OK(reader.NextView(&record, &at_end));
    if (at_end) break;
    DELEX_RETURN_NOT_OK(DecodePage(record, &pages.emplace_back()));
  }
  DELEX_RETURN_NOT_OK(reader.Close());
  snapshot.ReindexUrls();
  if (stats != nullptr) *stats += reader.stats();
  return snapshot;
}

}  // namespace delex
