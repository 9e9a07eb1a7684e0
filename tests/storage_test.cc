// Tests for the storage substrate: block-buffered record files, snapshot
// persistence, and the reuse files with their single-forward-scan page
// seek semantics (§5.2).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/value.h"
#include "storage/record_file.h"
#include "storage/reuse_file.h"
#include "storage/snapshot.h"

namespace delex {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("delex-storage-" + name))
      .string();
}

// ---------------------------------------------------------------------------
// RecordWriter / RecordReader

TEST(RecordFile, RoundTripsRecordsOfManySizes) {
  std::string path = TempPath("roundtrip");
  std::vector<std::string> records;
  records.push_back("");
  records.push_back("x");
  records.push_back(std::string(100, 'a'));
  records.push_back(std::string(kBlockSize - 1, 'b'));   // straddles a block
  records.push_back(std::string(3 * kBlockSize, 'c'));   // multi-block
  // Overfills the write buffer, then fills one on its own (written through).
  records.push_back(std::string(RecordWriter::kFlushBytes - 50, 'd'));
  records.push_back(std::string(RecordWriter::kFlushBytes + 1, 'e'));
  records.push_back("tail");

  RecordWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  for (const std::string& r : records) ASSERT_TRUE(writer.Append(r).ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.stats().records_written, 8);
  const int64_t file_size =
      static_cast<int64_t>(std::filesystem::file_size(path));
  EXPECT_EQ(writer.logical_size(), file_size);
  EXPECT_EQ(writer.stats().bytes_written, file_size);

  // The same framed bytes appended raw, in two pieces, make the same file.
  std::string framed;
  {
    std::ifstream in(path, std::ios::binary);
    framed.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  size_t split = 0;
  for (size_t i = 0; i < 3; ++i) split += 8 + records[i].size();
  const std::string raw_path = TempPath("roundtrip-raw");
  RecordWriter raw;
  ASSERT_TRUE(raw.Open(raw_path).ok());
  ASSERT_TRUE(raw.AppendRaw(std::string_view(framed).substr(0, split), 3).ok());
  ASSERT_TRUE(raw.AppendRaw(std::string_view(framed).substr(split), 5).ok());
  ASSERT_TRUE(raw.Close().ok());
  EXPECT_EQ(raw.stats().records_written, 8);
  EXPECT_EQ(raw.logical_size(), file_size);
  EXPECT_EQ(raw.stats().bytes_written, file_size);
  {
    std::ifstream in(raw_path, std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()),
              framed);
  }

  RecordReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  for (const std::string& expected : records) {
    std::string got;
    bool at_end = true;
    ASSERT_TRUE(reader.Next(&got, &at_end).ok());
    ASSERT_FALSE(at_end);
    EXPECT_EQ(got, expected);
  }
  std::string extra;
  bool at_end = false;
  ASSERT_TRUE(reader.Next(&extra, &at_end).ok());
  EXPECT_TRUE(at_end);
  EXPECT_EQ(reader.stats().records_read, 8);
}

TEST(RecordFile, EmptyFileReadsAsEnd) {
  std::string path = TempPath("empty");
  RecordWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Close().ok());
  RecordReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::string record;
  bool at_end = false;
  ASSERT_TRUE(reader.Next(&record, &at_end).ok());
  EXPECT_TRUE(at_end);
}

TEST(RecordFile, TruncatedBodyReportsCorruption) {
  std::string path = TempPath("corrupt");
  {
    RecordWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Append(std::string(500, 'z')).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::filesystem::resize_file(path, 100);
  RecordReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::string record;
  bool at_end = false;
  EXPECT_TRUE(reader.Next(&record, &at_end).IsCorruption());
}

TEST(RecordFile, OpenMissingFileFails) {
  RecordReader reader;
  EXPECT_TRUE(reader.Open("/nonexistent/dir/x").IsIOError());
}

TEST(RecordFile, StatsCountBlocks) {
  std::string path = TempPath("blocks");
  RecordWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append(std::string(2 * kBlockSize, 'q')).ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_GE(writer.stats().BlocksWritten(), 2);
}

// ---------------------------------------------------------------------------
// Snapshot persistence

TEST(Snapshot, AddAndFindByUrl) {
  Snapshot snapshot;
  snapshot.AddPage("http://a", "content a");
  snapshot.AddPage("http://b", "content bb");
  EXPECT_EQ(snapshot.NumPages(), 2u);
  EXPECT_EQ(snapshot.TotalBytes(), 19);
  ASSERT_TRUE(snapshot.FindByUrl("http://b").has_value());
  EXPECT_EQ(*snapshot.FindByUrl("http://b"), 1u);
  EXPECT_FALSE(snapshot.FindByUrl("http://c").has_value());
  EXPECT_EQ(snapshot.pages()[0].did, 0);
  EXPECT_EQ(snapshot.pages()[1].did, 1);
}

TEST(Snapshot, WriteReadRoundTrip) {
  Snapshot snapshot;
  snapshot.AddPage("http://x", "alpha\nbeta");
  snapshot.AddPage("http://y", std::string(10000, 'k'));
  std::string path = TempPath("snapshot");
  ASSERT_TRUE(WriteSnapshot(snapshot, path).ok());
  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->NumPages(), 2u);
  EXPECT_EQ(loaded->pages()[0].url, "http://x");
  EXPECT_EQ(loaded->pages()[0].content, "alpha\nbeta");
  EXPECT_EQ(loaded->pages()[1].content.size(), 10000u);
  EXPECT_TRUE(loaded->FindByUrl("http://y").has_value());
  for (size_t i = 0; i < loaded->NumPages(); ++i) {
    const Page& page = loaded->pages()[i];
    EXPECT_EQ(page.did, snapshot.pages()[i].did);
    EXPECT_EQ(page.content_hash, Fnv1a64(page.content));
  }
}

TEST(Snapshot, ReadKeepsRecordedDids) {
  // Dids come from the records, not from the read order.
  Page a;
  a.did = 5;
  a.url = "http://a";
  a.content = "five";
  Page b;
  b.did = 41;
  b.url = "http://b";
  b.content = std::string(5000, 'f');
  Snapshot snapshot;
  snapshot.AddExistingPage(a);
  snapshot.AddExistingPage(b);
  std::string path = TempPath("snapshot-dids");
  ASSERT_TRUE(WriteSnapshot(snapshot, path).ok());
  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->NumPages(), 2u);
  EXPECT_EQ(loaded->pages()[0].did, 5);
  EXPECT_EQ(loaded->pages()[1].did, 41);
  EXPECT_EQ(loaded->pages()[1].content_hash, Fnv1a64(b.content));
  EXPECT_EQ(*loaded->FindByUrl("http://b"), 1u);
}

/// A page record as WriteSnapshot encodes one, from arbitrary fields.
std::string PageRecord(const Tuple& fields) {
  std::string record;
  EncodeTuple(fields, &record);
  return record;
}

/// Writes `records` into one record file and reads it back as a snapshot.
Status ReadRecords(const std::string& name,
                   const std::vector<std::string>& records) {
  std::string path = TempPath("records-" + name);
  RecordWriter writer;
  DELEX_RETURN_NOT_OK(writer.Open(path));
  for (const std::string& record : records) {
    DELEX_RETURN_NOT_OK(writer.Append(record));
  }
  DELEX_RETURN_NOT_OK(writer.Close());
  return ReadSnapshot(path).status();
}

/// `record` with the 8-byte little-endian field at `offset` set to `value`.
std::string WithFixed64(std::string record, size_t offset, uint64_t value) {
  for (size_t i = 0; i < 8; ++i) {
    record[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  return record;
}

TEST(Snapshot, MalformedRecordsAreCorruption) {
  const std::string url = "http://a";
  const std::string content = "text";
  const std::string good =
      PageRecord({int64_t{1}, std::string(url), std::string(content)});
  ASSERT_TRUE(ReadRecords("good", {good, good}).ok());
  // Layout: count (8) | kind, did (1 + 8) | kind, length, url | kind,
  // length, content.
  const size_t url_length_at = 8 + 9 + 1;
  const size_t content_length_at = url_length_at + 8 + url.size() + 1;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"two_fields", PageRecord({int64_t{1}, std::string(url)})},
      {"four_fields", PageRecord({int64_t{1}, std::string(url),
                                  std::string(content), std::string("x")})},
      {"did_kind", PageRecord({1.5, std::string(url), std::string(content)})},
      {"url_kind", PageRecord({int64_t{1}, int64_t{2}, std::string(content)})},
      {"content_kind", PageRecord({int64_t{1}, std::string(url), true})},
      {"url_past_end", WithFixed64(good, url_length_at, good.size())},
      {"url_length_wraps", WithFixed64(good, url_length_at, ~uint64_t{0})},
      {"content_past_end",
       WithFixed64(good, content_length_at, content.size() + 1)},
      {"cut_in_did", good.substr(0, 12)},
  };
  for (const auto& [name, record] : cases) {
    Status status = ReadRecords(name, {good, record});
    EXPECT_TRUE(status.IsCorruption()) << name << ": " << status.ToString();
  }

  // Files cut inside the second record's 8-byte length prefix, and inside
  // its body.
  std::string path = TempPath("records-cut");
  const uintmax_t one_record = 8 + good.size();
  for (uintmax_t size : {one_record + 5, one_record + 8 + 10}) {
    ASSERT_TRUE(ReadRecords("cut", {good, good}).ok());
    std::filesystem::resize_file(path, size);
    auto loaded = ReadSnapshot(path);
    EXPECT_TRUE(loaded.status().IsCorruption())
        << "cut at " << size << ": " << loaded.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Reuse files

TEST(ReuseFile, TupleCodecsRoundTrip) {
  // Format v2 records carry no tid/did — the decoder leaves them zero for
  // the reader to synthesize from the page header.
  InputTupleRec in;
  in.region = TextSpan(100, 250);
  in.region_hash = 0xDEADBEEFCAFEBABEULL;
  in.context = {int64_t{9}, std::string("ctx")};
  std::string buffer;
  EncodeInputTuple(in, &buffer);
  auto decoded = DecodeInputTuple(buffer);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tid, 0);
  EXPECT_EQ(decoded->did, 0);
  EXPECT_EQ(decoded->region, TextSpan(100, 250));
  EXPECT_EQ(decoded->region_hash, 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(decoded->context.size(), 2u);

  OutputTupleRec out;
  out.itid = 7;
  out.payload = {TextSpan(120, 130), std::string("m")};
  buffer.clear();
  EncodeOutputTuple(out, &buffer);
  auto decoded_out = DecodeOutputTuple(buffer);
  ASSERT_TRUE(decoded_out.ok());
  EXPECT_EQ(decoded_out->itid, 7);
  EXPECT_EQ(std::get<TextSpan>(decoded_out->payload[0]), TextSpan(120, 130));
}

TEST(ReuseFile, PageIndexEntryCodecRoundTrips) {
  PageIndexEntry entry;
  entry.did = 42;
  entry.page_digest = 0x0123456789ABCDEFULL;
  entry.in_offset = 100;
  entry.in_bytes = 250;
  entry.n_inputs = 3;
  entry.out_offset = 64;
  entry.out_bytes = 90;
  entry.n_outputs = 2;
  std::string buffer;
  EncodePageIndexEntry(entry, &buffer);
  auto decoded = DecodePageIndexEntry(buffer);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->did, 42);
  EXPECT_EQ(decoded->page_digest, 0x0123456789ABCDEFULL);
  EXPECT_EQ(decoded->in_offset, 100);
  EXPECT_EQ(decoded->in_bytes, 250);
  EXPECT_EQ(decoded->n_inputs, 3);
  EXPECT_EQ(decoded->out_offset, 64);
  EXPECT_EQ(decoded->out_bytes, 90);
  EXPECT_EQ(decoded->n_outputs, 2);
  // Truncated entries are corruption, not garbage.
  EXPECT_TRUE(DecodePageIndexEntry(
                  std::string_view(buffer).substr(0, buffer.size() - 1))
                  .status()
                  .IsCorruption());
}

PageCapture MakeCapture(
    std::vector<std::pair<TextSpan, std::vector<Tuple>>> groups,
    uint64_t base_hash) {
  PageCapture capture;
  for (size_t i = 0; i < groups.size(); ++i) {
    PageCapture::Group& g = capture.groups.emplace_back();
    g.region = groups[i].first;
    g.region_hash = base_hash + i;
    g.outputs = std::move(groups[i].second);
  }
  return capture;
}

class ReuseFilesFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = TempPath("reuse");
    UnitReuseWriter writer;
    ASSERT_TRUE(writer.Open(prefix_).ok());
    // Page 0: two regions, outputs on the first.
    ASSERT_TRUE(
        writer
            .CommitPage(0, /*page_digest=*/1000,
                        MakeCapture({{TextSpan(0, 50),
                                      {{TextSpan(5, 9)}, {TextSpan(20, 30)}}},
                                     {TextSpan(50, 80), {}}},
                                    11))
            .ok());
    // Page 1 has no tuples at all (but still gets a header + index entry).
    ASSERT_TRUE(writer.CommitPage(1, 1001, PageCapture()).ok());
    // Page 2: one region, one output.
    ASSERT_TRUE(writer
                    .CommitPage(2, 1002,
                                MakeCapture({{TextSpan(0, 40),
                                              {{TextSpan(1, 2)}}}},
                                            13))
                    .ok());
    ASSERT_TRUE(writer.CommitPage(3, 1003, PageCapture()).ok());
    ASSERT_TRUE(writer.CommitPage(4, 1004, PageCapture()).ok());
    // Page 5: one region, no outputs.
    ASSERT_TRUE(
        writer.CommitPage(5, 1005, MakeCapture({{TextSpan(0, 10), {}}}, 14))
            .ok());
    ASSERT_TRUE(writer.Close().ok());
  }

  std::string prefix_;
};

TEST_F(ReuseFilesFixture, SequentialSeekReturnsPerPageGroups) {
  UnitReuseReader reader;
  ASSERT_TRUE(reader.Open(prefix_).ok());
  std::vector<InputTupleRec> inputs;
  std::vector<OutputTupleRec> outputs;

  ASSERT_TRUE(reader.SeekPage(0, &inputs, &outputs).ok());
  EXPECT_EQ(inputs.size(), 2u);
  EXPECT_EQ(outputs.size(), 2u);
  EXPECT_EQ(inputs[0].region, TextSpan(0, 50));
  EXPECT_EQ(outputs[0].itid, inputs[0].tid);

  ASSERT_TRUE(reader.SeekPage(1, &inputs, &outputs).ok());
  EXPECT_TRUE(inputs.empty());
  EXPECT_TRUE(outputs.empty());

  ASSERT_TRUE(reader.SeekPage(2, &inputs, &outputs).ok());
  EXPECT_EQ(inputs.size(), 1u);
  EXPECT_EQ(outputs.size(), 1u);

  ASSERT_TRUE(reader.SeekPage(5, &inputs, &outputs).ok());
  EXPECT_EQ(inputs.size(), 1u);
  EXPECT_TRUE(outputs.empty());
}

TEST_F(ReuseFilesFixture, SkippedGroupsAreConsumed) {
  UnitReuseReader reader;
  ASSERT_TRUE(reader.Open(prefix_).ok());
  std::vector<InputTupleRec> inputs;
  std::vector<OutputTupleRec> outputs;
  // Jump straight to page 5; pages 0 and 2 are skipped irrecoverably.
  ASSERT_TRUE(reader.SeekPage(5, &inputs, &outputs).ok());
  EXPECT_EQ(inputs.size(), 1u);
}

TEST_F(ReuseFilesFixture, BackwardSeekDegradesToEmpty) {
  UnitReuseReader reader;
  ASSERT_TRUE(reader.Open(prefix_).ok());
  std::vector<InputTupleRec> inputs;
  std::vector<OutputTupleRec> outputs;
  ASSERT_TRUE(reader.SeekPage(2, &inputs, &outputs).ok());
  EXPECT_EQ(inputs.size(), 1u);
  // Page 0's group was passed: an out-of-order request yields an empty
  // group (reuse degrades, correctness doesn't).
  ASSERT_TRUE(reader.SeekPage(0, &inputs, &outputs).ok());
  EXPECT_TRUE(inputs.empty());
  EXPECT_TRUE(outputs.empty());
  // Forward progress is unaffected.
  ASSERT_TRUE(reader.SeekPage(5, &inputs, &outputs).ok());
  EXPECT_EQ(inputs.size(), 1u);
}

TEST_F(ReuseFilesFixture, ReaderSynthesizesPageLocalOrdinals) {
  // v2 records carry no tid/did on disk; the reader stamps did from the
  // page header and tid as the ordinal within the page, restarting at 0
  // for every page (that restart is what makes raw page copies legal).
  UnitReuseReader reader;
  ASSERT_TRUE(reader.Open(prefix_).ok());
  std::vector<InputTupleRec> inputs;
  std::vector<OutputTupleRec> outputs;

  ASSERT_TRUE(reader.SeekPage(0, &inputs, &outputs).ok());
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_EQ(inputs[0].tid, 0);
  EXPECT_EQ(inputs[1].tid, 1);
  EXPECT_EQ(inputs[0].did, 0);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[0].itid, 0);
  EXPECT_EQ(outputs[1].itid, 0);
  EXPECT_EQ(outputs[0].did, 0);

  ASSERT_TRUE(reader.SeekPage(2, &inputs, &outputs).ok());
  ASSERT_EQ(inputs.size(), 1u);
  EXPECT_EQ(inputs[0].tid, 0);  // ordinals restart per page
  EXPECT_EQ(inputs[0].did, 2);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].itid, 0);
  EXPECT_EQ(outputs[0].did, 2);
}

TEST_F(ReuseFilesFixture, VersionOneFilesAreRejected) {
  // A file without the v2 magic record must fail loudly at Open, not
  // misparse its first record as a page header.
  std::string prefix = TempPath("reuse-v1");
  for (const char* suffix : {".in", ".out"}) {
    RecordWriter writer;
    ASSERT_TRUE(writer.Open(prefix + suffix).ok());
    ASSERT_TRUE(writer.Append("not a magic record").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  UnitReuseReader reader;
  EXPECT_TRUE(reader.Open(prefix).IsCorruption());
}

}  // namespace
}  // namespace delex
