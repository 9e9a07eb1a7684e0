// Tests for reuse format v2's sidecar page index and the zero-decode raw
// passthrough: runs lifted with BeginRun/LiftPage/EndRun and committed
// with CommitRun must reproduce CommitPage's bytes exactly, and a
// missing/truncated/corrupt index must degrade to the decode path — never
// miscompute.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "storage/page_groups.h"
#include "storage/result_cache.h"
#include "storage/reuse_file.h"

namespace delex {
namespace {

std::string TempDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("delex-reusev2-" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

PageCapture MakeCapture() {
  PageCapture capture;
  PageCapture::Group& a = capture.groups.emplace_back();
  a.region = TextSpan(10, 90);
  a.region_hash = 777;
  a.outputs.push_back({TextSpan(12, 20), std::string("alpha")});
  a.outputs.push_back({TextSpan(40, 55), std::string("beta")});
  PageCapture::Group& b = capture.groups.emplace_back();
  b.region = TextSpan(90, 160);
  b.region_hash = 778;
  b.context = {int64_t{3}, std::string("ctx")};
  PageCapture::Group& c = capture.groups.emplace_back();
  c.region = TextSpan(160, 200);
  c.region_hash = 779;
  c.outputs.push_back({TextSpan(161, 170), std::string("gamma")});
  return capture;
}

/// One page lifted as a run of one.
struct Lifted {
  RawRun run;
  bool found = false;
  bool index_valid = false;
  Status status;
};

Lifted LiftOne(UnitReuseReader* reader, int64_t did, uint64_t digest) {
  Lifted lifted;
  reader->BeginRun(&lifted.run);
  lifted.status =
      reader->LiftPage(did, digest, &lifted.found, &lifted.index_valid);
  reader->EndRun(lifted.found ? 1 : 0);
  EXPECT_TRUE(reader->LoadRun(&lifted.run).ok());
  return lifted;
}

constexpr uint64_t kDigest0 = 0xAAAA0000;
constexpr uint64_t kDigest1 = 0xBBBB1111;
constexpr uint64_t kDigest2 = 0xCCCC2222;

// Writes pages 0 (the rich capture), 1 (empty), 2 (one plain group).
void WriteFixture(const std::string& prefix) {
  UnitReuseWriter writer;
  ASSERT_TRUE(writer.Open(prefix).ok());
  ASSERT_TRUE(writer.CommitPage(0, kDigest0, MakeCapture()).ok());
  ASSERT_TRUE(writer.CommitPage(1, kDigest1, PageCapture()).ok());
  PageCapture last;
  PageCapture::Group& g = last.groups.emplace_back();
  g.region = TextSpan(0, 30);
  g.region_hash = 900;
  ASSERT_TRUE(writer.CommitPage(2, kDigest2, last).ok());
  ASSERT_TRUE(writer.Close().ok());
}

TEST(ReuseV2Index, IndexEntriesDescribeEveryPage) {
  std::string prefix = TempDir("index") + "/unit0";
  WriteFixture(prefix);

  UnitReuseReader reader;
  ASSERT_TRUE(reader.Open(prefix).ok());
  EXPECT_TRUE(reader.has_page_index());

  const PageIndexEntry* e0 = reader.FindIndexEntry(0);
  ASSERT_NE(e0, nullptr);
  EXPECT_EQ(e0->did, 0);
  EXPECT_EQ(e0->page_digest, kDigest0);
  EXPECT_EQ(e0->n_inputs, 3);
  EXPECT_EQ(e0->n_outputs, 3);
  EXPECT_GT(e0->in_bytes, 0);
  EXPECT_GT(e0->out_bytes, 0);

  // Empty pages still get an entry — "page had nothing", not "missing".
  const PageIndexEntry* e1 = reader.FindIndexEntry(1);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(e1->page_digest, kDigest1);
  EXPECT_EQ(e1->n_inputs, 0);
  EXPECT_EQ(e1->n_outputs, 0);
  EXPECT_EQ(e1->in_bytes, 0);

  const PageIndexEntry* e2 = reader.FindIndexEntry(2);
  ASSERT_NE(e2, nullptr);
  // Page 2's records sit right after page 0's (headers excluded from the
  // byte ranges, so offsets are strictly increasing but not contiguous).
  EXPECT_GT(e2->in_offset, e0->in_offset);
  EXPECT_EQ(reader.FindIndexEntry(99), nullptr);
  ASSERT_TRUE(reader.Close().ok());
}

TEST(ReuseV2Index, RawPassthroughReproducesCommitPageBytes) {
  std::string dir = TempDir("raw");
  std::string prefix = dir + "/unit0";
  WriteFixture(prefix);

  // Relocate all three pages raw under shifted dids...
  std::string raw_prefix = dir + "/raw";
  {
    UnitReuseReader reader;
    ASSERT_TRUE(reader.Open(prefix).ok());
    UnitReuseWriter writer;
    ASSERT_TRUE(writer.Open(raw_prefix).ok());
    const uint64_t digests[] = {kDigest0, kDigest1, kDigest2};
    RawRun run;
    reader.BeginRun(&run);
    for (int64_t did = 0; did < 3; ++did) {
      bool found = false;
      bool index_valid = false;
      ASSERT_TRUE(reader.LiftPage(did, digests[did], &found, &index_valid).ok());
      ASSERT_TRUE(found);
      ASSERT_TRUE(index_valid);
    }
    reader.EndRun(3);
    ASSERT_TRUE(reader.LoadRun(&run).ok());
    ASSERT_EQ(run.pages.size(), 3u);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(run.Slice(j).page_digest, digests[j]);
    }
    const int64_t dids[] = {10, 11, 12};
    ASSERT_TRUE(writer.CommitRun(run, 0, dids).ok());
    ASSERT_TRUE(writer.Close().ok());
    ASSERT_TRUE(reader.Close().ok());
  }

  // ...and re-capture the same pages through the decode path under the
  // same shifted dids. Both routes must produce byte-identical files.
  std::string dec_prefix = dir + "/dec";
  {
    UnitReuseReader reader;
    ASSERT_TRUE(reader.Open(prefix).ok());
    UnitReuseWriter writer;
    ASSERT_TRUE(writer.Open(dec_prefix).ok());
    const uint64_t digests[] = {kDigest0, kDigest1, kDigest2};
    for (int64_t did = 0; did < 3; ++did) {
      Lifted lifted = LiftOne(&reader, did, digests[did]);
      ASSERT_TRUE(lifted.status.ok());
      ASSERT_TRUE(lifted.found);
      PageCapture capture;
      ASSERT_TRUE(CaptureFromRawSlice(lifted.run.Slice(0), &capture).ok());
      ASSERT_TRUE(writer.CommitPage(did + 10, digests[did], capture).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
    ASSERT_TRUE(reader.Close().ok());
  }

  for (const char* suffix : {".in", ".out", ".idx"}) {
    EXPECT_EQ(ReadFileBytes(raw_prefix + suffix),
              ReadFileBytes(dec_prefix + suffix))
        << suffix;
  }

  // The relocated files decode exactly like the originals, page for page.
  UnitReuseReader original;
  ASSERT_TRUE(original.Open(prefix).ok());
  UnitReuseReader relocated;
  ASSERT_TRUE(relocated.Open(raw_prefix).ok());
  for (int64_t did = 0; did < 3; ++did) {
    std::vector<InputTupleRec> in_a, in_b;
    std::vector<OutputTupleRec> out_a, out_b;
    ASSERT_TRUE(original.SeekPage(did, &in_a, &out_a).ok());
    ASSERT_TRUE(relocated.SeekPage(did + 10, &in_b, &out_b).ok());
    ASSERT_EQ(in_a.size(), in_b.size());
    ASSERT_EQ(out_a.size(), out_b.size());
    for (size_t i = 0; i < in_a.size(); ++i) {
      EXPECT_EQ(in_a[i].tid, in_b[i].tid);
      EXPECT_EQ(in_a[i].region, in_b[i].region);
      EXPECT_EQ(in_a[i].region_hash, in_b[i].region_hash);
      EXPECT_EQ(in_a[i].context, in_b[i].context);
      EXPECT_EQ(in_b[i].did, did + 10);  // did re-stamped, nothing else
    }
    for (size_t i = 0; i < out_a.size(); ++i) {
      EXPECT_EQ(out_a[i].itid, out_b[i].itid);
      EXPECT_EQ(out_a[i].payload, out_b[i].payload);
    }
  }
}

TEST(ReuseV2Index, DigestMismatchInvalidatesIndexButSliceStillDecodes) {
  std::string prefix = TempDir("digest") + "/unit0";
  WriteFixture(prefix);

  UnitReuseReader reader;
  ASSERT_TRUE(reader.Open(prefix).ok());
  // Expected digest disagrees with the recorded one → no raw relocation.
  Lifted lifted = LiftOne(&reader, 0, kDigest0 + 1);
  ASSERT_TRUE(lifted.status.ok());
  EXPECT_TRUE(lifted.found);
  EXPECT_FALSE(lifted.index_valid);

  // The group itself is still sound: the decode fallback recovers the page.
  std::vector<InputTupleRec> inputs;
  std::vector<OutputTupleRec> outputs;
  ASSERT_TRUE(
      DecodeRawPageSlice(lifted.run.Slice(0), 0, &inputs, &outputs).ok());
  ASSERT_EQ(inputs.size(), 3u);
  EXPECT_EQ(inputs[0].region, TextSpan(10, 90));
  EXPECT_EQ(inputs[0].did, 0);
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_EQ(outputs[0].itid, 0);
  EXPECT_EQ(outputs[2].itid, 2);
}

struct IndexDamage {
  const char* name;
  void (*inflict)(const std::string& idx_path);
};

class ReuseV2IndexDamageTest : public ::testing::TestWithParam<IndexDamage> {};

TEST_P(ReuseV2IndexDamageTest, DamagedIndexDegradesToDecodePath) {
  std::string prefix = TempDir(std::string("damage-") + GetParam().name) +
                       "/unit0";
  WriteFixture(prefix);
  GetParam().inflict(prefix + ".idx");

  UnitReuseReader reader;
  ASSERT_TRUE(reader.Open(prefix).ok());  // never fails on index damage
  EXPECT_FALSE(reader.has_page_index());
  EXPECT_EQ(reader.FindIndexEntry(0), nullptr);

  // Raw relocation is off...
  Lifted lifted = LiftOne(&reader, 0, kDigest0);
  ASSERT_TRUE(lifted.status.ok());
  EXPECT_TRUE(lifted.found);
  EXPECT_FALSE(lifted.index_valid);

  // ...but every record is still recoverable from the lifted group.
  std::vector<InputTupleRec> inputs;
  std::vector<OutputTupleRec> outputs;
  ASSERT_TRUE(
      DecodeRawPageSlice(lifted.run.Slice(0), 0, &inputs, &outputs).ok());
  EXPECT_EQ(inputs.size(), 3u);
  EXPECT_EQ(outputs.size(), 3u);

  // And the decode-path seek on a fresh reader sees the full fixture.
  UnitReuseReader seek_reader;
  ASSERT_TRUE(seek_reader.Open(prefix).ok());
  ASSERT_TRUE(seek_reader.SeekPage(2, &inputs, &outputs).ok());
  ASSERT_EQ(inputs.size(), 1u);
  EXPECT_EQ(inputs[0].region, TextSpan(0, 30));
  EXPECT_TRUE(outputs.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Damage, ReuseV2IndexDamageTest,
    ::testing::Values(
        IndexDamage{"missing",
                    [](const std::string& path) {
                      std::filesystem::remove(path);
                    }},
        IndexDamage{"truncated",
                    [](const std::string& path) {
                      std::filesystem::resize_file(
                          path, std::filesystem::file_size(path) / 2);
                    }},
        IndexDamage{"badmagic",
                    [](const std::string& path) {
                      std::fstream f(path, std::ios::in | std::ios::out |
                                               std::ios::binary);
                      // Clobber the magic record's payload.
                      f.seekp(8);
                      f.write("XXXXXXXX", 8);
                    }},
        IndexDamage{"garbage",
                    [](const std::string& path) {
                      // Valid magic, then a record too short to be an entry.
                      std::fstream f(path, std::ios::in | std::ios::out |
                                               std::ios::binary);
                      f.seekp(16);
                      const char len[8] = {2, 0, 0, 0, 0, 0, 0, 0};
                      f.write(len, 8);
                    }}),
    [](const ::testing::TestParamInfo<IndexDamage>& info) {
      return info.param.name;
    });

TEST(ReuseV2Index, BackwardRawReadReportsNotFound) {
  std::string prefix = TempDir("backward") + "/unit0";
  WriteFixture(prefix);
  UnitReuseReader reader;
  ASSERT_TRUE(reader.Open(prefix).ok());
  Lifted later = LiftOne(&reader, 2, kDigest2);
  ASSERT_TRUE(later.status.ok());
  ASSERT_TRUE(later.found);
  // Page 0 was passed by the forward scan: not found, never invented.
  Lifted earlier = LiftOne(&reader, 0, kDigest0);
  ASSERT_TRUE(earlier.status.ok());
  EXPECT_FALSE(earlier.found);
  EXPECT_FALSE(earlier.index_valid);
  EXPECT_TRUE(earlier.run.pages.empty());
}

TEST(ReuseV2Index, RunAcrossAPassedPageHoldsOnlyItsOwnGroups) {
  // Pages 0 and 2 lifted as one run, page 1 passed between them: the run
  // holds two pieces, page 1's group is in neither, and its raw commit
  // equals committing the two pages through the decode path.
  std::string dir = TempDir("gap");
  std::string prefix = dir + "/unit0";
  WriteFixture(prefix);
  UnitReuseReader reader;
  ASSERT_TRUE(reader.Open(prefix).ok());
  RawRun run;
  reader.BeginRun(&run);
  bool found = false;
  bool index_valid = false;
  ASSERT_TRUE(reader.LiftPage(0, kDigest0, &found, &index_valid).ok());
  ASSERT_TRUE(found && index_valid);
  ASSERT_TRUE(reader.LiftPage(2, kDigest2, &found, &index_valid).ok());
  ASSERT_TRUE(found && index_valid);
  reader.EndRun(2);
  ASSERT_TRUE(reader.LoadRun(&run).ok());
  ASSERT_EQ(run.pages.size(), 2u);
  // Page 1's header sits between pages 0 and 2: one range per page, each
  // its page's header and group, and nothing of page 1.
  EXPECT_EQ(run.in_ranges.size(), 2u);
  EXPECT_EQ(static_cast<int64_t>(run.in_bytes.size()),
            static_cast<int64_t>(run.Slice(0).in_bytes.size() +
                                 run.Slice(1).in_bytes.size()) +
                2 * kFramedPageHeaderBytes);
  EXPECT_TRUE(run.PageHolds(0));
  EXPECT_TRUE(run.PageHolds(1));

  const int64_t dids[] = {7, 8};
  UnitReuseWriter raw_writer;
  ASSERT_TRUE(raw_writer.Open(dir + "/raw").ok());
  ASSERT_TRUE(raw_writer.CommitRun(run, 0, dids).ok());
  ASSERT_TRUE(raw_writer.Close().ok());
  UnitReuseWriter dec_writer;
  ASSERT_TRUE(dec_writer.Open(dir + "/dec").ok());
  PageCapture last;
  PageCapture::Group& g = last.groups.emplace_back();
  g.region = TextSpan(0, 30);
  g.region_hash = 900;
  ASSERT_TRUE(dec_writer.CommitPage(7, kDigest0, MakeCapture()).ok());
  ASSERT_TRUE(dec_writer.CommitPage(8, kDigest2, last).ok());
  ASSERT_TRUE(dec_writer.Close().ok());
  for (const char* suffix : {".in", ".out", ".idx"}) {
    EXPECT_EQ(ReadFileBytes(dir + "/raw" + suffix),
              ReadFileBytes(dir + "/dec" + suffix))
        << suffix;
  }
}

TEST(ReuseV2Index, EndRunDropsPagesPastTheKeptOnes) {
  // A run that lifted three pages but keeps two (the third demoted) holds
  // exactly the first two pages' groups.
  std::string prefix = TempDir("keep") + "/unit0";
  WriteFixture(prefix);
  UnitReuseReader reader;
  ASSERT_TRUE(reader.Open(prefix).ok());
  RawRun run;
  reader.BeginRun(&run);
  const uint64_t digests[] = {kDigest0, kDigest1, kDigest2};
  for (int64_t did = 0; did < 3; ++did) {
    bool found = false;
    bool index_valid = false;
    ASSERT_TRUE(reader.LiftPage(did, digests[did], &found, &index_valid).ok());
    ASSERT_TRUE(found);
  }
  reader.EndRun(2);
  ASSERT_TRUE(reader.LoadRun(&run).ok());
  ASSERT_EQ(run.pages.size(), 2u);
  const RawRun::Page& kept = run.pages.back();
  EXPECT_EQ(static_cast<int64_t>(run.in_bytes.size()),
            kept.in_offset + kept.in_length);
  EXPECT_EQ(static_cast<int64_t>(run.out_bytes.size()),
            kept.out_offset + kept.out_length);
  // The dropped page's group was passed.
  Lifted again = LiftOne(&reader, 2, kDigest2);
  ASSERT_TRUE(again.status.ok());
  EXPECT_FALSE(again.found);
}

TEST(ReuseV2Index, CaptureFromRawSliceRejectsOrphanedOutputs) {
  std::string prefix = TempDir("orphan") + "/unit0";
  // An output referencing input ordinal 5 in a page with one input.
  UnitReuseWriter writer;
  ASSERT_TRUE(writer.Open(prefix).ok());
  PageCapture capture = MakeCapture();
  ASSERT_TRUE(writer.CommitPage(0, kDigest0, capture).ok());
  ASSERT_TRUE(writer.Close().ok());

  UnitReuseReader reader;
  ASSERT_TRUE(reader.Open(prefix).ok());
  Lifted lifted = LiftOne(&reader, 0, kDigest0);
  ASSERT_TRUE(lifted.status.ok());
  ASSERT_TRUE(lifted.found);
  RawPageSlice slice = lifted.run.Slice(0);
  // Keep only the first input record (length-prefixed framing): the output
  // produced by input ordinal 2 is now orphaned.
  uint64_t first_len = 0;
  for (int i = 7; i >= 0; --i) {
    first_len = (first_len << 8) |
                static_cast<unsigned char>(slice.in_bytes[i]);
  }
  slice.in_bytes = slice.in_bytes.substr(0, 8 + first_len);
  slice.n_inputs = 1;
  PageCapture rebuilt;
  EXPECT_FALSE(CaptureFromRawSlice(slice, &rebuilt).ok());
}

// ---------------------------------------------------------------------------
// Result cache

TEST(ResultCache, RoundTripsRowsAndStripsDids) {
  std::string path = TempDir("results") + "/results.gen1";
  ResultCacheWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  std::vector<Tuple> rows;
  rows.push_back({int64_t{0}, TextSpan(3, 9), std::string("m1")});
  rows.push_back({int64_t{0}, TextSpan(14, 20), std::string("m2")});
  ASSERT_TRUE(writer.CommitPage(0, rows).ok());
  ASSERT_TRUE(writer.CommitPage(1, {}).ok());
  std::vector<Tuple> rows2;
  rows2.push_back({int64_t{2}, std::string("solo")});
  ASSERT_TRUE(writer.CommitPage(2, rows2).ok());
  ASSERT_TRUE(writer.Close().ok());

  ResultCacheReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  ResultRun run;
  reader.BeginRun(&run);
  for (int64_t did = 0; did < 3; ++did) {
    bool found = false;
    ASSERT_TRUE(reader.LiftPage(did, &found).ok());
    ASSERT_TRUE(found) << did;
  }
  reader.EndRun(3);
  ASSERT_TRUE(reader.LoadRun(&run).ok());
  ASSERT_EQ(run.pages.size(), 3u);
  EXPECT_EQ(run.Slice(0).n_rows, 2);

  // Re-prefix under a new did — the fast path's row recovery.
  std::vector<Tuple> decoded;
  ASSERT_TRUE(DecodeResultSlice(run.Slice(0), 42, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(decoded[0][0]), 42);
  EXPECT_EQ(std::get<TextSpan>(decoded[0][1]), TextSpan(3, 9));
  EXPECT_EQ(std::get<std::string>(decoded[1][2]), "m2");

  EXPECT_EQ(run.Slice(1).n_rows, 0);

  // Decoding appends: page 2's row lands after page 0's two.
  ASSERT_TRUE(DecodeResultSlice(run.Slice(2), 7, &decoded).ok());
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(std::get<int64_t>(decoded[2][0]), 7);

  // Absent page: found=false, never an error.
  ResultRun absent;
  reader.BeginRun(&absent);
  bool found = true;
  ASSERT_TRUE(reader.LiftPage(9, &found).ok());
  EXPECT_FALSE(found);
  reader.EndRun(0);
  EXPECT_TRUE(absent.pages.empty());
  ASSERT_TRUE(reader.Close().ok());
}

TEST(ResultCache, CommitRejectsRowsWithoutLeadingDid) {
  std::string path = TempDir("results-bad") + "/results.gen1";
  ResultCacheWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  std::vector<Tuple> rows;
  rows.push_back({std::string("no did here")});
  EXPECT_FALSE(writer.CommitPage(0, rows).ok());
}

TEST(ResultCache, RawRecommitReproducesBytes) {
  std::string dir = TempDir("results-raw");
  std::string gen1 = dir + "/results.gen1";
  {
    ResultCacheWriter writer;
    ASSERT_TRUE(writer.Open(gen1).ok());
    std::vector<Tuple> rows;
    rows.push_back({int64_t{0}, std::string("r")});
    ASSERT_TRUE(writer.CommitPage(0, rows).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  // Relocate page 0 raw into gen2, and rebuild it via decode into gen2b.
  std::string gen2 = dir + "/results.gen2";
  std::string gen2b = dir + "/results.gen2b";
  ResultRun run;
  {
    ResultCacheReader reader;
    ASSERT_TRUE(reader.Open(gen1).ok());
    reader.BeginRun(&run);
    bool found = false;
    ASSERT_TRUE(reader.LiftPage(0, &found).ok());
    ASSERT_TRUE(found);
    reader.EndRun(1);
    ASSERT_TRUE(reader.LoadRun(&run).ok());
    ASSERT_TRUE(reader.Close().ok());
  }
  {
    ResultCacheWriter writer;
    ASSERT_TRUE(writer.Open(gen2).ok());
    const int64_t dids[] = {5};
    ASSERT_TRUE(writer.CommitRun(run, 0, dids).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  {
    std::vector<Tuple> rows;
    ASSERT_TRUE(DecodeResultSlice(run.Slice(0), 5, &rows).ok());
    ResultCacheWriter writer;
    ASSERT_TRUE(writer.Open(gen2b).ok());
    ASSERT_TRUE(writer.CommitPage(5, rows).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  EXPECT_EQ(ReadFileBytes(gen2), ReadFileBytes(gen2b));
}

TEST(ResultCache, TruncatedFileReportsCorruptionOnRead) {
  std::string path = TempDir("results-trunc") + "/results.gen1";
  {
    ResultCacheWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    std::vector<Tuple> rows;
    rows.push_back({int64_t{0}, std::string(600, 'x')});
    ASSERT_TRUE(writer.CommitPage(0, rows).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 10);
  ResultCacheReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  ResultRun run;
  reader.BeginRun(&run);
  bool found = false;
  EXPECT_FALSE(reader.LiftPage(0, &found).ok());
  reader.EndRun(0);
}

}  // namespace
}  // namespace delex
