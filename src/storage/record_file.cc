#include "storage/record_file.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace delex {
namespace {

void PutLength(uint64_t v, char* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

uint64_t GetLength(const char* data) {
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<unsigned char>(data[i])) << (8 * i);
  }
  return out;
}

}  // namespace

RecordWriter::~RecordWriter() {
  if (file_ != nullptr) Close().ok();
}

Status RecordWriter::Open(const std::string& path) {
  if (file_ != nullptr) return Status::InvalidArgument("writer already open");
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) return Status::IOError("cannot create " + path);
  // buffer_ is the write buffer: each fwrite is then one write(2).
  std::setvbuf(file_, nullptr, _IONBF, 0);
  path_ = path;
  buffer_.clear();
  buffer_.reserve(kFlushBytes);
  logical_size_ = 0;
  stats_ = IoStats();
  return Status::OK();
}

Status RecordWriter::Append(std::string_view record) {
  if (file_ == nullptr) return Status::InvalidArgument("writer not open");
  char length[8];
  PutLength(record.size(), length);
  logical_size_ += 8 + static_cast<int64_t>(record.size());
  ++stats_.records_written;
  DELEX_RETURN_NOT_OK(Buffer(std::string_view(length, sizeof(length))));
  return Buffer(record);
}

Status RecordWriter::AppendRaw(std::string_view framed, int64_t record_count) {
  if (file_ == nullptr) return Status::InvalidArgument("writer not open");
  logical_size_ += static_cast<int64_t>(framed.size());
  stats_.records_written += record_count;
  return Buffer(framed);
}

Status RecordWriter::Buffer(std::string_view bytes) {
  if (buffer_.size() + bytes.size() > kFlushBytes) {
    DELEX_RETURN_NOT_OK(FlushBuffer());
    if (bytes.size() >= kFlushBytes) return Write(bytes);
  }
  buffer_.append(bytes);
  return Status::OK();
}

Status RecordWriter::Write(std::string_view bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return Status::IOError("short write to " + path_);
  }
  stats_.bytes_written += static_cast<int64_t>(bytes.size());
  return Status::OK();
}

Status RecordWriter::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  DELEX_RETURN_NOT_OK(Write(buffer_));
  buffer_.clear();
  return Status::OK();
}

Status RecordWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  Status st = FlushBuffer();
  if (std::fclose(file_) != 0 && st.ok()) {
    st = Status::IOError("close failed for " + path_);
  }
  file_ = nullptr;
  return st;
}

RecordReader::~RecordReader() {
  if (file_ != nullptr) Close().ok();
}

Status RecordReader::Open(const std::string& path) {
  if (file_ != nullptr) return Status::InvalidArgument("reader already open");
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) return Status::IOError("cannot open " + path);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  file_size_ = ec ? 0 : static_cast<int64_t>(size);
  path_ = path;
  pos_ = 0;
  end_ = 0;
  hit_eof_ = false;
  base_ = 0;
  needed_eof_ = false;
  needed_floor_ = 0;
  stats_ = IoStats();
  return Status::OK();
}

Status RecordReader::FillBuffer(size_t need) {
  // Move the unread bytes to the front, then read whole chunks behind
  // them until `need` bytes are unread or EOF.
  if (pos_ > 0) {
    std::memmove(buffer_.get(), buffer_.get() + pos_, end_ - pos_);
    base_ += static_cast<int64_t>(pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  while (end_ - pos_ < need && !hit_eof_) {
    if (capacity_ - end_ < kReadChunk) {
      const size_t grown = std::max(capacity_ * 2, end_ + kReadChunk);
      std::unique_ptr<char[]> bigger(new char[grown]);
      if (end_ > 0) std::memcpy(bigger.get(), buffer_.get(), end_);
      buffer_ = std::move(bigger);
      capacity_ = grown;
    }
    const size_t want = capacity_ - end_;
    const size_t got = std::fread(buffer_.get() + end_, 1, want, file_);
    if (got < want) {
      if (std::ferror(file_) != 0) {
        return Status::IOError("read failed for " + path_);
      }
      hit_eof_ = true;
    }
    end_ += got;
  }
  return Status::OK();
}

Status RecordReader::Next(std::string* record, bool* at_end) {
  std::string_view view;
  DELEX_RETURN_NOT_OK(NextView(&view, at_end));
  if (!*at_end) record->assign(view);
  return Status::OK();
}

Status RecordReader::NextView(std::string_view* record, bool* at_end) {
  if (file_ == nullptr) return Status::InvalidArgument("reader not open");
  *at_end = false;
  if (end_ - pos_ < 8) {
    DELEX_RETURN_NOT_OK(FillBuffer(8));
    if (end_ - pos_ < 8) needed_eof_ = true;
  }
  const size_t available = end_ - pos_;
  if (available == 0) {
    *at_end = true;
    return Status::OK();
  }
  if (available < 8) {
    return Status::Corruption("truncated record header in " + path_);
  }
  uint64_t length = GetLength(buffer_.get() + pos_);
  // Untrusted length prefix: reject absurd values before any allocation.
  // Without the cap, a corrupt prefix near UINT64_MAX overflows `8 +
  // length` (wrapping the bounds checks below) and a merely-huge one turns
  // into a failed multi-gigabyte buffer resize instead of a clean error.
  if (length > kMaxRecordLength) {
    needed_floor_ = std::max(needed_floor_, Offset() + 8);
    return Status::Corruption("record length " + std::to_string(length) +
                              " exceeds limit in " + path_);
  }
  if (end_ - pos_ < 8 + length) {
    DELEX_RETURN_NOT_OK(FillBuffer(8 + static_cast<size_t>(length)));
    if (end_ - pos_ < 8 + length) {
      needed_eof_ = true;
      return Status::Corruption("truncated record body in " + path_);
    }
  }
  *record = std::string_view(buffer_.get() + pos_ + 8, length);
  pos_ += 8 + length;
  ++stats_.records_read;
  return Status::OK();
}

Status RecordReader::Skip(int64_t count) {
  while (count > 0) {
    // Records wholly in the buffer: walk their length prefixes in place.
    size_t pos = pos_;
    int64_t walked = 0;
    while (walked < count && end_ - pos >= 8) {
      const uint64_t length = GetLength(buffer_.get() + pos);
      if (length > kMaxRecordLength || end_ - pos - 8 < length) break;
      pos += 8 + length;
      ++walked;
    }
    pos_ = pos;
    stats_.records_read += walked;
    count -= walked;
    if (count == 0) break;
    // The next record straddles the buffer's end (or is bad): NextView
    // refills, or reports the error.
    std::string_view record;
    bool at_end = false;
    DELEX_RETURN_NOT_OK(NextView(&record, &at_end));
    if (at_end) return Status::Corruption("truncated record group in " + path_);
    --count;
  }
  return Status::OK();
}

Status RecordReader::SkipTo(int64_t offset, int64_t records) {
  if (file_ == nullptr) return Status::InvalidArgument("reader not open");
  if (offset < Offset()) return Status::InvalidArgument("scan moves forward");
  stats_.records_read += records;
  if (offset <= base_ + static_cast<int64_t>(end_)) {
    pos_ = static_cast<size_t>(offset - base_);
    return Status::OK();
  }
  if (offset > file_size_) {
    needed_eof_ = true;
    return Status::Corruption("skip past the end of " + path_);
  }
  if (fseeko(file_, static_cast<off_t>(offset), SEEK_SET) != 0) {
    return Status::IOError("seek failed for " + path_);
  }
  base_ = offset;
  pos_ = 0;
  end_ = 0;
  hit_eof_ = false;
  return Status::OK();
}

Status RecordReader::ReadAt(int64_t offset, int64_t length, char* out) const {
  if (file_ == nullptr) return Status::InvalidArgument("reader not open");
  if (offset < 0 || length < 0 || length > file_size_ - offset) {
    return Status::Corruption("read past the end of " + path_);
  }
  const int fd = fileno(file_);
  while (length > 0) {
    const ssize_t got = ::pread(fd, out, static_cast<size_t>(length),
                                static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return Status::IOError("read failed for " + path_);
    out += got;
    offset += got;
    length -= got;
  }
  return Status::OK();
}

IoStats RecordReader::stats() const {
  IoStats stats = stats_;
  if (needed_eof_) {
    stats.bytes_read = file_size_;
  } else {
    // A block-at-a-time reader stops at the first block boundary past the
    // last byte it needed.
    const int64_t needed = std::max(Offset(), needed_floor_);
    const int64_t blocks = (needed + kBlockSize - 1) / kBlockSize;
    stats.bytes_read = std::min(blocks * kBlockSize, file_size_);
  }
  return stats;
}

Status RecordReader::Close() {
  if (file_ == nullptr) return Status::OK();
  Status st = Status::OK();
  if (std::fclose(file_) != 0) st = Status::IOError("close failed for " + path_);
  file_ = nullptr;
  // The counters stay readable; the buffer goes.
  buffer_.reset();
  capacity_ = 0;
  return st;
}

bool FramedRecordsHold(std::string_view framed, int64_t count) {
  size_t pos = 0;
  for (int64_t i = 0; i < count; ++i) {
    if (framed.size() - pos < 8) return false;
    const uint64_t length = GetLength(framed.data() + pos);
    if (length > kMaxRecordLength || framed.size() - pos - 8 < length) {
      return false;
    }
    pos += 8 + length;
  }
  return pos == framed.size();
}

}  // namespace delex
