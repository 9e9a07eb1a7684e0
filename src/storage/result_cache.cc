#include "storage/result_cache.h"

#include <algorithm>

#include "obs/trace.h"

namespace delex {

namespace {

constexpr std::string_view kResultMagic = "DLXRV2RS";

bool GetFixed(std::string_view data, size_t* offset, int64_t* v) {
  if (*offset + 8 > data.size()) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<unsigned char>(
               data[*offset + static_cast<size_t>(i)]))
           << (8 * i);
  }
  *offset += 8;
  *v = static_cast<int64_t>(out);
  return true;
}

}  // namespace

Status ResultCacheWriter::Open(const std::string& path) {
  DELEX_RETURN_NOT_OK(writer_.Open(path));
  return writer_.Append(kResultMagic);
}

Status ResultCacheWriter::CommitPage(int64_t did,
                                     const std::vector<Tuple>& rows_with_did) {
  DELEX_TRACE_SPAN("result_commit_page", did, "io");
  scratch_.clear();
  EncodePageHeader(did, static_cast<int64_t>(rows_with_did.size()), &scratch_);
  DELEX_RETURN_NOT_OK(writer_.Append(scratch_));
  Tuple stripped;
  for (const Tuple& row : rows_with_did) {
    if (row.empty() || !std::holds_alternative<int64_t>(row[0]) ||
        std::get<int64_t>(row[0]) != did) {
      return Status::InvalidArgument("result row does not start with its did");
    }
    stripped.assign(row.begin() + 1, row.end());
    scratch_.clear();
    EncodeTuple(stripped, &scratch_);
    DELEX_RETURN_NOT_OK(writer_.Append(scratch_));
  }
  mem_.Set(static_cast<int64_t>(scratch_.capacity()));
  return Status::OK();
}

Status ResultCacheWriter::CommitRun(const ResultRun& run, size_t first,
                                    std::span<const int64_t> dids) {
  DELEX_TRACE_SPAN("result_commit_run", dids.empty() ? -1 : dids.front(),
                   "io");
  for (size_t j = 0; j < dids.size(); ++j) {
    const ResultPageSlice rows = run.Slice(first + j);
    scratch_.clear();
    EncodePageHeader(dids[j], rows.n_rows, &scratch_);
    DELEX_RETURN_NOT_OK(writer_.Append(scratch_));
    DELEX_RETURN_NOT_OK(writer_.AppendRaw(rows.bytes, rows.n_rows));
  }
  return Status::OK();
}

Status ResultCacheWriter::Close() { return writer_.Close(); }

ResultPageSlice ResultRun::Slice(size_t j) const {
  const Page& page = pages[j];
  return ResultPageSlice{std::string_view(bytes).substr(
                             static_cast<size_t>(page.offset),
                             static_cast<size_t>(page.length)),
                         page.n_rows};
}

Status ResultCacheReader::Open(const std::string& path) {
  DELEX_RETURN_NOT_OK(scanner_.reader().Open(path));
  std::string_view magic;
  bool at_end = false;
  DELEX_RETURN_NOT_OK(scanner_.reader().NextView(&magic, &at_end));
  if (at_end || magic != kResultMagic) {
    return Status::Corruption("bad result cache magic " + path);
  }
  return Status::OK();
}

void ResultCacheReader::BeginRun(ResultRun* run) {
  run->pages.clear();
  run->bytes.clear();
  run->loaded = false;
  scanner_.BeginRun(&run->ranges);
  run_ = run;
}

Status ResultCacheReader::LiftPage(int64_t did, bool* found) {
  DELEX_RETURN_NOT_OK(scanner_.Seek(did, found));
  if (!*found) return Status::OK();
  LiftedGroup group;
  DELEX_RETURN_NOT_OK(scanner_.Lift(/*length=*/-1, &group));
  run_->pages.push_back({group.offset, group.length, group.count});
  return Status::OK();
}

void ResultCacheReader::EndRun(size_t keep) {
  if (run_ == nullptr) return;
  keep = std::min(keep, run_->pages.size());
  const ResultRun::Page* last = keep > 0 ? &run_->pages[keep - 1] : nullptr;
  scanner_.EndRun(last != nullptr ? last->offset + last->length : 0);
  run_->pages.resize(keep);
  run_ = nullptr;
  mem_.Set(static_cast<int64_t>(scanner_.reader().BufferCapacity()));
}

Status ResultCacheReader::LoadRun(ResultRun* run) const {
  if (run->loaded) return Status::OK();
  DELEX_RETURN_NOT_OK(LoadRanges(scanner_.reader(), run->ranges, &run->bytes));
  run->loaded = true;
  return Status::OK();
}

Status ResultCacheReader::Close() { return scanner_.reader().Close(); }

Status DecodeResultSlice(const ResultPageSlice& slice, int64_t did,
                         std::vector<Tuple>* rows) {
  const size_t before = rows->size();
  Status status = [&]() -> Status {
    // n_rows is untrusted (it rode in on a page header); each row costs at
    // least 8 framing bytes, so bound the reservation by the bytes present.
    const size_t wanted =
        before + static_cast<size_t>(std::min<int64_t>(
                     std::max<int64_t>(slice.n_rows, 0),
                     static_cast<int64_t>(slice.bytes.size() / 8 + 1)));
    if (rows->capacity() < wanted) {
      rows->reserve(std::max(wanted, rows->capacity() * 2));
    }
    size_t offset = 0;
    const std::string_view data = slice.bytes;
    while (offset < data.size()) {
      int64_t length = 0;
      if (!GetFixed(data, &offset, &length) || length < 0 ||
          offset + static_cast<size_t>(length) > data.size()) {
        return Status::Corruption("bad result slice framing");
      }
      size_t body = 0;
      std::string_view record =
          data.substr(offset, static_cast<size_t>(length));
      DELEX_ASSIGN_OR_RETURN(Tuple stripped, DecodeTuple(record, &body));
      if (body != record.size()) {
        return Status::Corruption("trailing bytes in result row");
      }
      Tuple row;
      row.reserve(stripped.size() + 1);
      row.push_back(did);
      for (Value& v : stripped) row.push_back(std::move(v));
      rows->push_back(std::move(row));
      offset += static_cast<size_t>(length);
    }
    if (static_cast<int64_t>(rows->size() - before) != slice.n_rows) {
      return Status::Corruption("result slice row count mismatch");
    }
    return Status::OK();
  }();
  if (!status.ok()) rows->resize(before);
  return status;
}

}  // namespace delex
