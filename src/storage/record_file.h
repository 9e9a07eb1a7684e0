#ifndef DELEX_STORAGE_RECORD_FILE_H_
#define DELEX_STORAGE_RECORD_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
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

/// \brief Append-only file of length-prefixed records with buffered
/// writes.
///
/// This is the substrate for reuse files (§4): "we use one block of memory
/// per reuse file to buffer the writes; whenever a block fills up, we flush
/// the buffered tuples to the end of the corresponding reuse file." The
/// buffer here is kFlushBytes (8 blocks), not one block: a refresh commits
/// thousands of relocated pages on one thread, and one write(2) per 4 KB
/// block made that commit path a stream of small system calls. Bytes that
/// would overfill the buffer flush it first, and a piece of kFlushBytes or
/// more (a long relocated run) then goes to the file unbuffered, so the
/// buffer never holds more than kFlushBytes. The FILE itself is
/// unbuffered: one flush is one write(2). Flushing later changes no byte
/// of the file, no logical_size and no IoStats.
class RecordWriter {
 public:
  /// The write buffer's capacity: 32 KB.
  static constexpr size_t kFlushBytes = 8 * static_cast<size_t>(kBlockSize);

  RecordWriter() = default;
  ~RecordWriter();

  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  /// Creates/truncates the file at `path`.
  Status Open(const std::string& path);

  /// Buffers one record; flushes the buffer when the record would
  /// overfill it.
  Status Append(std::string_view record);

  /// Buffers `record_count` already-framed records (each 8-byte length
  /// prefix + payload, exactly as this writer lays them out). This is the
  /// zero-re-encode passthrough used by the reuse-file raw page copy: the
  /// bytes land in the file verbatim, indistinguishable from the same
  /// records appended one by one through Append.
  Status AppendRaw(std::string_view framed, int64_t record_count);

  /// Flushes what is buffered and closes the file.
  Status Close();

  bool IsOpen() const { return file_ != nullptr; }
  const IoStats& stats() const { return stats_; }

  /// Total framed bytes appended since Open (flushed + still buffered).
  /// Reuse-file page indexes record byte ranges in this coordinate.
  int64_t logical_size() const { return logical_size_; }

 private:
  /// Appends `bytes` to the buffer, flushing it first when they would
  /// overfill it; bytes that fill a buffer on their own are written
  /// straight through.
  Status Buffer(std::string_view bytes);
  Status Write(std::string_view bytes);
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
/// scan; no random probes. The file is read in kReadChunk pieces straight
/// into the reader's own buffer; IoStats still counts the bytes a reader
/// fetching one kBlockSize block at a time, as needed, would have read, so
/// the per-run I/O figures do not depend on the chunk size.
class RecordReader {
 public:
  /// Bytes per fread.
  static constexpr size_t kReadChunk = 64 * 1024;

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

  /// Reads past the next `count` records with NextView's checks, without
  /// handing them out. Running out of records is Corruption.
  Status Skip(int64_t count);

  /// Moves the scan forward to file offset `offset` (at least Offset()),
  /// past `records` records, reading nothing in between that is not
  /// buffered yet. Stats count them as read, as a scan would have.
  Status SkipTo(int64_t offset, int64_t records);

  /// Reads `length` bytes at file offset `offset` into `out`, wherever the
  /// scan is: a positioned read, safe from any thread while the reader is
  /// open. Bytes the scan already passed are read again, so they are not
  /// counted in stats().
  Status ReadAt(int64_t offset, int64_t length, char* out) const;

  Status Close();

  bool IsOpen() const { return file_ != nullptr; }
  IoStats stats() const;

  /// The file's size when it was opened.
  int64_t FileSize() const { return file_size_; }

  /// File offset just past the last record read (RecordWriter::
  /// logical_size coordinates).
  int64_t Offset() const { return base_ + static_cast<int64_t>(pos_); }

  /// Bytes the buffer holds (it grows only to fit one record).
  size_t BufferCapacity() const { return capacity_; }

 private:
  /// Makes `need` unread bytes available, unless the file ends first.
  Status FillBuffer(size_t need);

  std::FILE* file_ = nullptr;
  std::string path_;
  std::unique_ptr<char[]> buffer_;
  size_t capacity_ = 0;
  size_t pos_ = 0;  // next unread byte
  size_t end_ = 0;  // one past the last byte read from the file
  bool hit_eof_ = false;
  int64_t file_size_ = 0;
  int64_t base_ = 0;  // file offset of buffer_[0]
  // Set once a read needed bytes past the end of the file: a block reader
  // would then have read all of it.
  bool needed_eof_ = false;
  // A block reader's extra need on a failed read (the record header of a
  // record whose length was rejected).
  int64_t needed_floor_ = 0;
  IoStats stats_;  // records; bytes_read is derived in stats()
};

/// True when `framed` is exactly `count` records as RecordWriter lays them
/// out (8-byte length prefix + payload each), every length within
/// kMaxRecordLength.
bool FramedRecordsHold(std::string_view framed, int64_t count);

}  // namespace delex

#endif  // DELEX_STORAGE_RECORD_FILE_H_
