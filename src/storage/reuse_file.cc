#include "storage/reuse_file.h"

#include <algorithm>

#include "obs/trace.h"

namespace delex {

namespace {

// File magics double as format-version stamps: a v1 work dir (no magic,
// different record shapes) fails the magic check loudly instead of being
// misread as page groups.
constexpr std::string_view kInputMagic = "DLXRV2IN";
constexpr std::string_view kOutputMagic = "DLXRV2OU";
constexpr std::string_view kIndexMagic = "DLXRV2IX";

// Fixed-width little-endian header fields; the hot path decodes one record
// per region group per page, so this codec avoids tuple-machinery allocs.
void PutFixed(uint64_t v, std::string* out) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, 8);
}

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

/// Clamp an untrusted record count to a sane reservation: each record
/// costs ≥ 8 framing bytes, so a count beyond this bound is necessarily a
/// truncation error waiting to surface — never pre-allocate for it.
size_t ClampedReserve(int64_t count) {
  constexpr int64_t kMaxReserve = 1 << 20;
  return static_cast<size_t>(std::min<int64_t>(count, kMaxReserve));
}

}  // namespace

void EncodeInputTuple(const InputTupleRec& rec, std::string* out) {
  PutFixed(static_cast<uint64_t>(rec.region.start), out);
  PutFixed(static_cast<uint64_t>(rec.region.end), out);
  PutFixed(rec.region_hash, out);
  EncodeTuple(rec.context, out);
}

void EncodeOutputTuple(const OutputTupleRec& rec, std::string* out) {
  PutFixed(static_cast<uint64_t>(rec.itid), out);
  EncodeTuple(rec.payload, out);
}

Result<InputTupleRec> DecodeInputTuple(std::string_view data) {
  size_t offset = 0;
  InputTupleRec rec;
  int64_t hash_bits = 0;
  if (!GetFixed(data, &offset, &rec.region.start) ||
      !GetFixed(data, &offset, &rec.region.end) ||
      !GetFixed(data, &offset, &hash_bits)) {
    return Status::Corruption("bad input tuple header");
  }
  rec.region_hash = static_cast<uint64_t>(hash_bits);
  DELEX_ASSIGN_OR_RETURN(rec.context, DecodeTuple(data, &offset));
  return rec;
}

Result<OutputTupleRec> DecodeOutputTuple(std::string_view data) {
  size_t offset = 0;
  OutputTupleRec rec;
  if (!GetFixed(data, &offset, &rec.itid)) {
    return Status::Corruption("bad output tuple header");
  }
  DELEX_ASSIGN_OR_RETURN(rec.payload, DecodeTuple(data, &offset));
  return rec;
}

void EncodePageIndexEntry(const PageIndexEntry& entry, std::string* out) {
  PutFixed(static_cast<uint64_t>(entry.did), out);
  PutFixed(entry.page_digest, out);
  PutFixed(static_cast<uint64_t>(entry.in_offset), out);
  PutFixed(static_cast<uint64_t>(entry.in_bytes), out);
  PutFixed(static_cast<uint64_t>(entry.n_inputs), out);
  PutFixed(static_cast<uint64_t>(entry.out_offset), out);
  PutFixed(static_cast<uint64_t>(entry.out_bytes), out);
  PutFixed(static_cast<uint64_t>(entry.n_outputs), out);
}

Result<PageIndexEntry> DecodePageIndexEntry(std::string_view data) {
  size_t offset = 0;
  PageIndexEntry entry;
  int64_t digest_bits = 0;
  if (!GetFixed(data, &offset, &entry.did) ||
      !GetFixed(data, &offset, &digest_bits) ||
      !GetFixed(data, &offset, &entry.in_offset) ||
      !GetFixed(data, &offset, &entry.in_bytes) ||
      !GetFixed(data, &offset, &entry.n_inputs) ||
      !GetFixed(data, &offset, &entry.out_offset) ||
      !GetFixed(data, &offset, &entry.out_bytes) ||
      !GetFixed(data, &offset, &entry.n_outputs) || offset != data.size()) {
    return Status::Corruption("bad page index entry");
  }
  // Index entries gate the raw byte-range passthrough, so every field the
  // relocation arithmetic touches must be range-checked here — an entry
  // with a negative offset or count must never survive to LiftPage's
  // offset comparison.
  if (entry.did < 0 || entry.in_offset < 0 || entry.in_bytes < 0 ||
      entry.n_inputs < 0 || entry.out_offset < 0 || entry.out_bytes < 0 ||
      entry.n_outputs < 0) {
    return Status::Corruption("page index entry out of range");
  }
  entry.page_digest = static_cast<uint64_t>(digest_bits);
  return entry;
}

Status UnitReuseWriter::Open(const std::string& path_prefix) {
  DELEX_RETURN_NOT_OK(input_writer_.Open(path_prefix + ".in"));
  DELEX_RETURN_NOT_OK(output_writer_.Open(path_prefix + ".out"));
  DELEX_RETURN_NOT_OK(index_writer_.Open(path_prefix + ".idx"));
  DELEX_RETURN_NOT_OK(input_writer_.Append(kInputMagic));
  DELEX_RETURN_NOT_OK(output_writer_.Append(kOutputMagic));
  return index_writer_.Append(kIndexMagic);
}

Status UnitReuseWriter::CommitPage(int64_t did, uint64_t page_digest,
                                   const PageCapture& capture) {
  DELEX_TRACE_SPAN("reuse_commit_page", did, "io");
  PageIndexEntry entry;
  entry.did = did;
  entry.page_digest = page_digest;
  entry.n_inputs = static_cast<int64_t>(capture.groups.size());
  for (const PageCapture::Group& group : capture.groups) {
    entry.n_outputs += static_cast<int64_t>(group.outputs.size());
  }

  scratch_.clear();
  EncodePageHeader(did, entry.n_inputs, &scratch_);
  DELEX_RETURN_NOT_OK(input_writer_.Append(scratch_));
  entry.in_offset = input_writer_.logical_size();
  for (const PageCapture::Group& group : capture.groups) {
    InputTupleRec rec;
    rec.region = group.region;
    rec.region_hash = group.region_hash;
    rec.context = group.context;
    scratch_.clear();
    EncodeInputTuple(rec, &scratch_);
    DELEX_RETURN_NOT_OK(input_writer_.Append(scratch_));
  }
  entry.in_bytes = input_writer_.logical_size() - entry.in_offset;

  scratch_.clear();
  EncodePageHeader(did, entry.n_outputs, &scratch_);
  DELEX_RETURN_NOT_OK(output_writer_.Append(scratch_));
  entry.out_offset = output_writer_.logical_size();
  for (size_t iord = 0; iord < capture.groups.size(); ++iord) {
    for (const Tuple& payload : capture.groups[iord].outputs) {
      OutputTupleRec rec;
      rec.itid = static_cast<int64_t>(iord);
      rec.payload = payload;
      scratch_.clear();
      EncodeOutputTuple(rec, &scratch_);
      DELEX_RETURN_NOT_OK(output_writer_.Append(scratch_));
    }
  }
  entry.out_bytes = output_writer_.logical_size() - entry.out_offset;

  scratch_.clear();
  EncodePageIndexEntry(entry, &scratch_);
  return index_writer_.Append(scratch_);
}

RawPageSlice RawRun::Slice(size_t j) const {
  const Page& page = pages[j];
  RawPageSlice slice;
  slice.page_digest = page.page_digest;
  slice.in_bytes = std::string_view(in_bytes).substr(
      static_cast<size_t>(page.in_offset), static_cast<size_t>(page.in_length));
  slice.n_inputs = page.n_inputs;
  slice.out_bytes = std::string_view(out_bytes).substr(
      static_cast<size_t>(page.out_offset),
      static_cast<size_t>(page.out_length));
  slice.n_outputs = page.n_outputs;
  return slice;
}

bool RawRun::PageHolds(size_t j) const {
  const Page& page = pages[j];
  const RawPageSlice slice = Slice(j);
  return PageHeaderAt(in_bytes, page.in_offset - kFramedPageHeaderBytes,
                      page.did, page.n_inputs) &&
         PageHeaderAt(out_bytes, page.out_offset - kFramedPageHeaderBytes,
                      page.did, page.n_outputs) &&
         FramedRecordsHold(slice.in_bytes, slice.n_inputs) &&
         FramedRecordsHold(slice.out_bytes, slice.n_outputs);
}

Status UnitReuseWriter::CommitRun(const RawRun& run, size_t first,
                                  std::span<const int64_t> dids) {
  DELEX_TRACE_SPAN("reuse_commit_run", dids.empty() ? -1 : dids.front(),
                   "io");
  for (size_t j = 0; j < dids.size(); ++j) {
    const RawPageSlice raw = run.Slice(first + j);
    PageIndexEntry entry;
    entry.did = dids[j];
    entry.page_digest = raw.page_digest;
    entry.n_inputs = raw.n_inputs;
    entry.n_outputs = raw.n_outputs;

    scratch_.clear();
    EncodePageHeader(entry.did, raw.n_inputs, &scratch_);
    DELEX_RETURN_NOT_OK(input_writer_.Append(scratch_));
    entry.in_offset = input_writer_.logical_size();
    DELEX_RETURN_NOT_OK(input_writer_.AppendRaw(raw.in_bytes, raw.n_inputs));
    entry.in_bytes = static_cast<int64_t>(raw.in_bytes.size());

    scratch_.clear();
    EncodePageHeader(entry.did, raw.n_outputs, &scratch_);
    DELEX_RETURN_NOT_OK(output_writer_.Append(scratch_));
    entry.out_offset = output_writer_.logical_size();
    DELEX_RETURN_NOT_OK(
        output_writer_.AppendRaw(raw.out_bytes, raw.n_outputs));
    entry.out_bytes = static_cast<int64_t>(raw.out_bytes.size());

    scratch_.clear();
    EncodePageIndexEntry(entry, &scratch_);
    DELEX_RETURN_NOT_OK(index_writer_.Append(scratch_));
  }
  return Status::OK();
}

Status UnitReuseWriter::Close() {
  Status st = input_writer_.Close();
  Status st_out = output_writer_.Close();
  Status st_idx = index_writer_.Close();
  if (!st.ok()) return st;
  if (!st_out.ok()) return st_out;
  return st_idx;
}

IoStats UnitReuseWriter::CombinedStats() const {
  IoStats stats = input_writer_.stats();
  stats += output_writer_.stats();
  stats += index_writer_.stats();
  return stats;
}

Status UnitReuseReader::Open(const std::string& path_prefix) {
  DELEX_RETURN_NOT_OK(input_.reader().Open(path_prefix + ".in"));
  DELEX_RETURN_NOT_OK(output_.reader().Open(path_prefix + ".out"));
  DELEX_RETURN_NOT_OK(CheckMagic(&input_, kInputMagic));
  DELEX_RETURN_NOT_OK(CheckMagic(&output_, kOutputMagic));
  LoadIndex(path_prefix + ".idx").ok();  // failure just disables the index
  UpdateMemCharge();
  return Status::OK();
}

Status UnitReuseReader::CheckMagic(PageGroupScanner* scanner,
                                   std::string_view magic) {
  std::string_view record;
  bool at_end = false;
  DELEX_RETURN_NOT_OK(scanner->reader().NextView(&record, &at_end));
  if (at_end || record != magic) {
    return Status::Corruption("bad reuse file magic (expected format v2)");
  }
  return Status::OK();
}

Status UnitReuseReader::LoadIndex(const std::string& path) {
  index_.clear();
  index_ok_ = false;
  RecordReader reader;
  Status st = reader.Open(path);
  if (!st.ok()) return st;
  std::string_view record;
  bool at_end = false;
  st = reader.NextView(&record, &at_end);
  bool ok = st.ok() && !at_end && record == kIndexMagic;
  while (ok) {
    st = reader.NextView(&record, &at_end);
    if (!st.ok()) {
      ok = false;
      break;
    }
    if (at_end) break;
    Result<PageIndexEntry> entry = DecodePageIndexEntry(record);
    if (!entry.ok()) {
      ok = false;
      break;
    }
    // A duplicate did means the index is internally inconsistent; treat
    // the whole sidecar as corrupt rather than guessing which entry wins.
    if (!index_.emplace(entry->did, *entry).second) {
      ok = false;
      break;
    }
  }
  index_io_ += reader.stats();
  reader.Close().ok();
  if (!ok) {
    index_.clear();
    return st.ok() ? Status::Corruption("bad page index " + path) : st;
  }
  index_ok_ = true;
  return Status::OK();
}

void UnitReuseReader::UpdateMemCharge() {
  // The index map dominates (one entry per page); then the two read
  // buffers.
  constexpr int64_t kEntryOverhead =
      static_cast<int64_t>(sizeof(PageIndexEntry)) + 32;  // bucket + links
  mem_.Set(static_cast<int64_t>(index_.size()) * kEntryOverhead +
           static_cast<int64_t>(input_.reader().BufferCapacity() +
                                output_.reader().BufferCapacity()));
}

const PageIndexEntry* UnitReuseReader::FindIndexEntry(int64_t did) const {
  if (!index_ok_) return nullptr;
  auto it = index_.find(did);
  return it == index_.end() ? nullptr : &it->second;
}

Status UnitReuseReader::SeekPage(int64_t did,
                                 std::vector<InputTupleRec>* inputs,
                                 std::vector<OutputTupleRec>* outputs) {
  DELEX_TRACE_SPAN("reuse_seek_page", did, "io");
  inputs->clear();
  outputs->clear();

  bool found = false;
  std::string_view record;
  DELEX_RETURN_NOT_OK(input_.Seek(did, &found));
  if (found) {
    inputs->reserve(ClampedReserve(input_.count()));
    for (int64_t ord = 0; ord < input_.count(); ++ord) {
      DELEX_RETURN_NOT_OK(input_.NextRecord(&record));
      DELEX_ASSIGN_OR_RETURN(InputTupleRec rec, DecodeInputTuple(record));
      rec.tid = ord;
      rec.did = did;
      inputs->push_back(std::move(rec));
    }
    input_.EndGroup();
  }

  DELEX_RETURN_NOT_OK(output_.Seek(did, &found));
  if (found) {
    outputs->reserve(ClampedReserve(output_.count()));
    for (int64_t ord = 0; ord < output_.count(); ++ord) {
      DELEX_RETURN_NOT_OK(output_.NextRecord(&record));
      DELEX_ASSIGN_OR_RETURN(OutputTupleRec rec, DecodeOutputTuple(record));
      if (rec.itid < 0 || rec.itid >= static_cast<int64_t>(inputs->size())) {
        // An output must name an input of its own page; anything else is
        // corrupt bytes, rejected here so downstream consumers (and the
        // paranoid ordinal checker) only ever see page-local references.
        return Status::Corruption("reuse output record names no input");
      }
      rec.tid = ord;
      rec.did = did;
      outputs->push_back(std::move(rec));
    }
    output_.EndGroup();
  }
  UpdateMemCharge();
  return Status::OK();
}

void UnitReuseReader::BeginRun(RawRun* run) {
  run->pages.clear();
  run->in_bytes.clear();
  run->out_bytes.clear();
  run->loaded = false;
  input_.BeginRun(&run->in_ranges);
  output_.BeginRun(&run->out_ranges);
  run_ = run;
}

Status UnitReuseReader::LiftPage(int64_t did, uint64_t expected_digest,
                                 bool* found, bool* index_valid) {
  *found = false;
  *index_valid = false;
  const PageIndexEntry* entry = FindIndexEntry(did);
  const bool digest_ok =
      entry != nullptr && entry->page_digest == expected_digest;
  // An entry must put the page's groups where the scan is, with lengths
  // inside the files.
  auto at_scan = [](const PageGroupScanner& scanner, int64_t offset,
                    int64_t bytes) {
    return offset == scanner.reader().Offset() &&
           bytes <= scanner.reader().FileSize() - offset;
  };
  LiftedGroup in;
  LiftedGroup out;
  if (digest_ok && input_.PendingIsNoneOr(did) &&
      output_.PendingIsNoneOr(did) &&
      entry->in_offset ==
          input_.NextHeaderOffset() + kFramedPageHeaderBytes &&
      entry->out_offset ==
          output_.NextHeaderOffset() + kFramedPageHeaderBytes &&
      entry->in_bytes <= input_.reader().FileSize() - entry->in_offset &&
      entry->out_bytes <= output_.reader().FileSize() - entry->out_offset) {
    // The common case: the page's groups are the next ones, where the
    // index puts them. They are taken without reading them; the committer
    // checks their headers and record framing when it reads them back.
    DELEX_RETURN_NOT_OK(
        input_.LiftAt(entry->in_offset, entry->in_bytes, entry->n_inputs, &in));
    DELEX_RETURN_NOT_OK(output_.LiftAt(entry->out_offset, entry->out_bytes,
                                       entry->n_outputs, &out));
    *found = true;
    *index_valid = true;
  } else {
    // Otherwise the scan looks for the groups (past the groups of passed
    // pages). An entry that agrees with where it finds them, and with
    // their headers' counts, gives their lengths; without one the records
    // are walked, for the decode-copy tier.
    bool found_in = false;
    bool found_out = false;
    DELEX_RETURN_NOT_OK(input_.Seek(did, &found_in));
    DELEX_RETURN_NOT_OK(output_.Seek(did, &found_out));
    if (found_in != found_out) {
      return Status::Corruption("reuse files out of sync at page group");
    }
    if (!found_in) return Status::OK();
    *found = true;
    *index_valid = digest_ok && entry->n_inputs == input_.count() &&
                   entry->n_outputs == output_.count() &&
                   at_scan(input_, entry->in_offset, entry->in_bytes) &&
                   at_scan(output_, entry->out_offset, entry->out_bytes);
    DELEX_RETURN_NOT_OK(input_.Lift(*index_valid ? entry->in_bytes : -1, &in));
    DELEX_RETURN_NOT_OK(
        output_.Lift(*index_valid ? entry->out_bytes : -1, &out));
  }
  RawRun::Page& page = run_->pages.emplace_back();
  page.did = did;
  page.page_digest = *index_valid ? entry->page_digest : 0;
  page.index_valid = *index_valid;
  page.in_offset = in.offset;
  page.in_length = in.length;
  page.n_inputs = in.count;
  page.out_offset = out.offset;
  page.out_length = out.length;
  page.n_outputs = out.count;
  return Status::OK();
}

void UnitReuseReader::EndRun(size_t keep) {
  if (run_ == nullptr) return;
  keep = std::min(keep, run_->pages.size());
  const RawRun::Page* last = keep > 0 ? &run_->pages[keep - 1] : nullptr;
  input_.EndRun(last != nullptr ? last->in_offset + last->in_length : 0);
  output_.EndRun(last != nullptr ? last->out_offset + last->out_length : 0);
  run_->pages.resize(keep);
  run_ = nullptr;
}

Status UnitReuseReader::LoadRun(RawRun* run) const {
  if (run->loaded) return Status::OK();
  DELEX_RETURN_NOT_OK(
      LoadRanges(input_.reader(), run->in_ranges, &run->in_bytes));
  DELEX_RETURN_NOT_OK(
      LoadRanges(output_.reader(), run->out_ranges, &run->out_bytes));
  run->loaded = true;
  return Status::OK();
}

Status UnitReuseReader::Close() {
  Status st = input_.reader().Close();
  Status st_out = output_.reader().Close();
  index_.clear();
  index_ok_ = false;
  UpdateMemCharge();
  if (!st.ok()) return st;
  return st_out;
}

IoStats UnitReuseReader::CombinedStats() const {
  IoStats stats = input_.reader().stats();
  stats += output_.reader().stats();
  stats += index_io_;
  return stats;
}

Status DecodeRawPageSlice(const RawPageSlice& slice, int64_t did,
                          std::vector<InputTupleRec>* inputs,
                          std::vector<OutputTupleRec>* outputs) {
  inputs->clear();
  outputs->clear();

  auto walk = [](std::string_view framed, int64_t expect_count,
                 auto&& per_record) -> Status {
    size_t offset = 0;
    int64_t count = 0;
    while (offset < framed.size()) {
      int64_t length = 0;
      if (!GetFixed(framed, &offset, &length) || length < 0 ||
          offset + static_cast<size_t>(length) > framed.size()) {
        return Status::Corruption("bad raw page slice framing");
      }
      DELEX_RETURN_NOT_OK(per_record(
          std::string_view(framed.data() + offset,
                           static_cast<size_t>(length)),
          count));
      offset += static_cast<size_t>(length);
      ++count;
    }
    if (count != expect_count) {
      return Status::Corruption("raw page slice record count mismatch");
    }
    return Status::OK();
  };

  DELEX_RETURN_NOT_OK(walk(
      slice.in_bytes, slice.n_inputs,
      [&](std::string_view record, int64_t ord) -> Status {
        DELEX_ASSIGN_OR_RETURN(InputTupleRec rec, DecodeInputTuple(record));
        rec.tid = ord;
        rec.did = did;
        inputs->push_back(std::move(rec));
        return Status::OK();
      }));
  return walk(slice.out_bytes, slice.n_outputs,
              [&](std::string_view record, int64_t ord) -> Status {
                DELEX_ASSIGN_OR_RETURN(OutputTupleRec rec,
                                       DecodeOutputTuple(record));
                rec.tid = ord;
                rec.did = did;
                outputs->push_back(std::move(rec));
                return Status::OK();
              });
}

Status CaptureFromRawSlice(const RawPageSlice& slice, PageCapture* capture) {
  capture->groups.clear();
  std::vector<InputTupleRec> inputs;
  std::vector<OutputTupleRec> outputs;
  DELEX_RETURN_NOT_OK(DecodeRawPageSlice(slice, /*did=*/0, &inputs, &outputs));
  capture->groups.reserve(inputs.size());
  for (InputTupleRec& in : inputs) {
    PageCapture::Group group;
    group.region = in.region;
    group.region_hash = in.region_hash;
    group.context = std::move(in.context);
    capture->groups.push_back(std::move(group));
  }
  for (OutputTupleRec& out : outputs) {
    if (out.itid < 0 ||
        out.itid >= static_cast<int64_t>(capture->groups.size())) {
      return Status::Corruption("raw page slice output orphaned");
    }
    capture->groups[static_cast<size_t>(out.itid)].outputs.push_back(
        std::move(out.payload));
  }
  return Status::OK();
}

}  // namespace delex
