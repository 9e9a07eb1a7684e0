#include "storage/page_groups.h"

#include <algorithm>

namespace delex {

namespace {

void PutFixed(uint64_t v, std::string* out) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, 8);
}

int64_t GetFixed(const char* data) {
  uint64_t out = 0;
  for (int i = 7; i >= 0; --i) {
    out = (out << 8) | static_cast<unsigned char>(data[i]);
  }
  return static_cast<int64_t>(out);
}

}  // namespace

void EncodePageHeader(int64_t did, int64_t count, std::string* out) {
  PutFixed(static_cast<uint64_t>(did), out);
  PutFixed(static_cast<uint64_t>(count), out);
}

bool DecodePageHeader(std::string_view data, int64_t* did, int64_t* count) {
  if (data.size() != 16) return false;
  *did = GetFixed(data.data());
  *count = GetFixed(data.data() + 8);
  // Negative fields can only come from corrupt bytes; letting them through
  // would turn into huge size_t casts at the reserve/skip sites.
  return *did >= 0 && *count >= 0;
}

bool PageHeaderAt(std::string_view bytes, int64_t offset, int64_t did,
                  int64_t count) {
  if (offset < 0 || static_cast<int64_t>(bytes.size()) - offset <
                        kFramedPageHeaderBytes) {
    return false;
  }
  const char* at = bytes.data() + offset;
  return GetFixed(at) == 16 && GetFixed(at + 8) == did &&
         GetFixed(at + 16) == count;
}

Status PageGroupScanner::Seek(int64_t did, bool* found) {
  *found = false;
  while (!done_) {
    if (!header_pending_) {
      std::string_view record;
      bool at_end = false;
      DELEX_RETURN_NOT_OK(reader_.NextView(&record, &at_end));
      if (at_end) {
        done_ = true;
        return Status::OK();
      }
      if (!DecodePageHeader(record, &pending_did_, &pending_count_)) {
        return Status::Corruption("bad page group header");
      }
      header_pending_ = true;
    }
    if (pending_did_ < did) {
      // Skip a passed group (deleted page / no matching page in the new
      // snapshot) without decoding its records.
      DELEX_RETURN_NOT_OK(reader_.Skip(pending_count_));
      header_pending_ = false;
      continue;
    }
    *found = pending_did_ == did;
    return Status::OK();  // header for did (or a later page) stays pending
  }
  return Status::OK();
}

Status PageGroupScanner::NextRecord(std::string_view* record) {
  bool at_end = false;
  DELEX_RETURN_NOT_OK(reader_.NextView(record, &at_end));
  if (at_end) return Status::Corruption("truncated page group");
  return Status::OK();
}

void PageGroupScanner::BeginRun(std::vector<FileRange>* ranges) {
  ranges->clear();
  run_ranges_ = ranges;
  run_bytes_ = 0;
}

Status PageGroupScanner::Lift(int64_t length, LiftedGroup* group) {
  const int64_t start = reader_.Offset();
  const int64_t count = pending_count_;
  DELEX_RETURN_NOT_OK(length < 0 ? reader_.Skip(count)
                                 : reader_.SkipTo(start + length, count));
  header_pending_ = false;
  AddToRun(start, reader_.Offset() - start, count, group);
  return Status::OK();
}

Status PageGroupScanner::LiftAt(int64_t offset, int64_t length, int64_t count,
                                LiftedGroup* group) {
  // The header (unless Seek read it) and the records are counted as read,
  // as a scan over them would have.
  DELEX_RETURN_NOT_OK(
      reader_.SkipTo(offset + length, (header_pending_ ? 0 : 1) + count));
  header_pending_ = false;
  AddToRun(offset, length, count, group);
  return Status::OK();
}

void PageGroupScanner::AddToRun(int64_t offset, int64_t length, int64_t count,
                                LiftedGroup* group) {
  const int64_t header = offset - kFramedPageHeaderBytes;
  if (run_ranges_->empty() ||
      run_ranges_->back().offset + run_ranges_->back().length != header) {
    run_ranges_->push_back({header, 0});
  }
  run_ranges_->back().length += kFramedPageHeaderBytes + length;
  group->offset = run_bytes_ + kFramedPageHeaderBytes;
  group->length = length;
  group->count = count;
  run_bytes_ += kFramedPageHeaderBytes + length;
}

void PageGroupScanner::EndRun(int64_t keep_bytes) {
  if (run_ranges_ == nullptr) return;
  TrimRanges(keep_bytes, run_ranges_);
  run_ranges_ = nullptr;
}

int64_t RangeBytes(const std::vector<FileRange>& ranges) {
  int64_t bytes = 0;
  for (const FileRange& range : ranges) bytes += range.length;
  return bytes;
}

void TrimRanges(int64_t length, std::vector<FileRange>* ranges) {
  size_t kept = 0;
  for (; kept < ranges->size() && length > 0; ++kept) {
    FileRange& range = (*ranges)[kept];
    range.length = std::min(range.length, length);
    length -= range.length;
  }
  ranges->resize(kept);
}

Status LoadRanges(const RecordReader& reader,
                  const std::vector<FileRange>& ranges, std::string* bytes) {
  bytes->resize(static_cast<size_t>(RangeBytes(ranges)));
  char* out = bytes->data();
  for (const FileRange& range : ranges) {
    DELEX_RETURN_NOT_OK(reader.ReadAt(range.offset, range.length, out));
    out += range.length;
  }
  return Status::OK();
}

}  // namespace delex
