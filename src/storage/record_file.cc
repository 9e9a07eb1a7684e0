#include "storage/record_file.h"

#include <cstring>

namespace delex {
namespace {

void PutLength(uint64_t v, std::string* out) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, 8);
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
  path_ = path;
  buffer_.clear();
  buffer_.reserve(static_cast<size_t>(kBlockSize) * 2);
  logical_size_ = 0;
  stats_ = IoStats();
  return Status::OK();
}

Status RecordWriter::Append(std::string_view record) {
  if (file_ == nullptr) return Status::InvalidArgument("writer not open");
  PutLength(record.size(), &buffer_);
  buffer_.append(record);
  logical_size_ += 8 + static_cast<int64_t>(record.size());
  ++stats_.records_written;
  if (buffer_.size() >= static_cast<size_t>(kBlockSize)) {
    return FlushBuffer();
  }
  return Status::OK();
}

Status RecordWriter::AppendRaw(std::string_view framed, int64_t record_count) {
  if (file_ == nullptr) return Status::InvalidArgument("writer not open");
  buffer_.append(framed);
  logical_size_ += static_cast<int64_t>(framed.size());
  stats_.records_written += record_count;
  if (buffer_.size() >= static_cast<size_t>(kBlockSize)) {
    return FlushBuffer();
  }
  return Status::OK();
}

Status RecordWriter::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  size_t written = std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  if (written != buffer_.size()) {
    return Status::IOError("short write to " + path_);
  }
  stats_.bytes_written += static_cast<int64_t>(buffer_.size());
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
  path_ = path;
  buffer_.clear();
  buffer_pos_ = 0;
  hit_eof_ = false;
  stats_ = IoStats();
  return Status::OK();
}

Status RecordReader::FillBuffer(size_t need) {
  // Compact consumed bytes, then read block-aligned chunks until `need`
  // bytes are available or EOF.
  if (buffer_pos_ > 0) {
    buffer_.erase(0, buffer_pos_);
    buffer_pos_ = 0;
  }
  while (buffer_.size() < need && !hit_eof_) {
    char chunk[kBlockSize];
    size_t got = std::fread(chunk, 1, sizeof(chunk), file_);
    if (got < sizeof(chunk)) {
      if (std::ferror(file_) != 0) {
        return Status::IOError("read failed for " + path_);
      }
      hit_eof_ = true;
    }
    buffer_.append(chunk, got);
    stats_.bytes_read += static_cast<int64_t>(got);
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
  if (buffer_.size() - buffer_pos_ < 8) {
    DELEX_RETURN_NOT_OK(FillBuffer(8));
  }
  size_t available = buffer_.size() - buffer_pos_;
  if (available == 0) {
    *at_end = true;
    return Status::OK();
  }
  if (available < 8) {
    return Status::Corruption("truncated record header in " + path_);
  }
  uint64_t length = GetLength(buffer_.data() + buffer_pos_);
  // Untrusted length prefix: reject absurd values before any allocation.
  // Without the cap, a corrupt prefix near UINT64_MAX overflows `8 +
  // length` (wrapping the bounds checks below) and a merely-huge one turns
  // into a failed multi-gigabyte buffer resize instead of a clean error.
  if (length > kMaxRecordLength) {
    return Status::Corruption("record length " + std::to_string(length) +
                              " exceeds limit in " + path_);
  }
  if (buffer_.size() - buffer_pos_ < 8 + length) {
    DELEX_RETURN_NOT_OK(FillBuffer(8 + static_cast<size_t>(length)));
    if (buffer_.size() < 8 + length) {
      return Status::Corruption("truncated record body in " + path_);
    }
  }
  *record = std::string_view(buffer_.data() + buffer_pos_ + 8, length);
  buffer_pos_ += 8 + length;
  ++stats_.records_read;
  return Status::OK();
}

Status RecordReader::Close() {
  if (file_ == nullptr) return Status::OK();
  Status st = Status::OK();
  if (std::fclose(file_) != 0) st = Status::IOError("close failed for " + path_);
  file_ = nullptr;
  return st;
}

}  // namespace delex
