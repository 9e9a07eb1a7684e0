#ifndef DELEX_STORAGE_RECORD_FILE_H_
#define DELEX_STORAGE_RECORD_FILE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/io_stats.h"

namespace delex {

/// Upper bound on a single record's payload size. Record files are
/// untrusted bytes (a work dir can be truncated, bit-flipped, or swapped
/// for a different format), so the reader refuses length prefixes beyond
/// this bound instead of attempting a multi-gigabyte allocation — a
/// corrupt 8-byte length field must degrade to Status::Corruption, never
/// to OOM or to size_t overflow in buffer arithmetic. The largest real
/// records (whole-page framed slices stay per-record small; page contents
/// in snapshots are the biggest payloads) sit far below this.
inline constexpr uint64_t kMaxRecordLength = uint64_t{1} << 30;  // 1 GiB

/// \brief Append-only file of length-prefixed records with block-sized
/// write buffering.
///
/// This is the substrate for reuse files (§4): "we use one block of memory
/// per reuse file to buffer the writes; whenever a block fills up, we flush
/// the buffered tuples to the end of the corresponding reuse file."
class RecordWriter {
 public:
  RecordWriter() = default;
  ~RecordWriter();

  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  /// Creates/truncates the file at `path`.
  Status Open(const std::string& path);

  /// Buffers one record; flushes whole blocks as the buffer fills.
  Status Append(std::string_view record);

  /// Buffers `record_count` already-framed records (each 8-byte length
  /// prefix + payload, exactly as this writer lays them out). This is the
  /// zero-re-encode passthrough used by the reuse-file raw page copy: the
  /// bytes land in the file verbatim, indistinguishable from the same
  /// records appended one by one through Append.
  Status AppendRaw(std::string_view framed, int64_t record_count);

  /// Flushes the partial tail block and closes the file.
  Status Close();

  bool IsOpen() const { return file_ != nullptr; }
  const IoStats& stats() const { return stats_; }

  /// Total framed bytes appended since Open (flushed + still buffered).
  /// Reuse-file page indexes record byte ranges in this coordinate.
  int64_t logical_size() const { return logical_size_; }

 private:
  Status FlushBuffer();

  std::FILE* file_ = nullptr;
  std::string path_;
  std::string buffer_;
  int64_t logical_size_ = 0;
  IoStats stats_;
};

/// \brief Sequential reader over a RecordWriter file.
///
/// Supports exactly the access pattern §5.2 requires: one front-to-back
/// scan; no random probes.
class RecordReader {
 public:
  RecordReader() = default;
  ~RecordReader();

  RecordReader(const RecordReader&) = delete;
  RecordReader& operator=(const RecordReader&) = delete;

  Status Open(const std::string& path);

  /// Reads the next record into `*record`. Sets `*at_end` when the file is
  /// exhausted (then `*record` is untouched).
  Status Next(std::string* record, bool* at_end);

  /// Next without the copy: `*record` views the reader's own buffer and
  /// stays valid until the next call on this reader. Same length cap and
  /// truncation checks as Next.
  Status NextView(std::string_view* record, bool* at_end);

  Status Close();

  bool IsOpen() const { return file_ != nullptr; }
  const IoStats& stats() const { return stats_; }

 private:
  Status FillBuffer(size_t need);

  std::FILE* file_ = nullptr;
  std::string path_;
  std::string buffer_;
  size_t buffer_pos_ = 0;
  bool hit_eof_ = false;
  IoStats stats_;
};

}  // namespace delex

#endif  // DELEX_STORAGE_RECORD_FILE_H_
