#ifndef DELEX_STORAGE_REUSE_FILE_H_
#define DELEX_STORAGE_REUSE_FILE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "common/value.h"
#include "obs/mem.h"
#include "storage/io_stats.h"
#include "storage/page_groups.h"
#include "storage/record_file.h"

namespace delex {

/// \brief One row of I_U^n: a text region that IE unit U operated on.
///
/// (tid, did, s, e, c) of §4 — `context` carries the "rest of the input
/// parameter values" c; matching only reuses tuples whose context equals
/// the new input's context.
///
/// Reuse format v2 stores *page-local ordinals* instead of the v1
/// file-global monotone tids: on disk an input record carries no tid and
/// no did at all — its ordinal is its position inside the page group, and
/// the group's did lives in the page header record. The reader synthesizes
/// `tid` (= ordinal) and `did` (= the sought page) on decode, so engine
/// code sees the same shape as before. This is the relocatability
/// invariant: a page group's record bytes mention nothing outside the
/// page, so an identical page's bytes can be copied raw into the next
/// generation under a fresh did without decode or re-encode.
struct InputTupleRec {
  int64_t tid = 0;  ///< page-local ordinal (synthesized on decode)
  int64_t did = 0;  ///< synthesized on decode from the page header
  TextSpan region;
  /// FNV-1a of the region's text, computed at capture time (the content is
  /// in memory then); spares the next run from re-hashing every old region
  /// for the exact-content fast path.
  ///
  /// Contract: `region_hash` covers the region's *bytes only* — never the
  /// context. Matching may only reuse a tuple whose context equals the new
  /// input's context (§4), so the exact-content fast path consults the
  /// hash exclusively for tuples with an *empty* context on both sides;
  /// tuples carrying a non-empty context must take the matcher path, where
  /// context equality is checked explicitly. Consumers indexing old inputs
  /// by hash must skip non-empty-context records for the same reason.
  uint64_t region_hash = 0;
  Tuple context;
};

/// \brief One row of O_U^n: a tuple U produced, with the input tuple that
/// yielded it.
///
/// (tid, itid, m, c') of §4 — `payload` is the full output tuple; its span
/// values are the mention m (plus any extra span attributes), everything
/// else is c'. In format v2 `itid` is the page-local ordinal of the input
/// group that produced the output; `tid`/`did` are synthesized on decode
/// like InputTupleRec's.
struct OutputTupleRec {
  int64_t tid = 0;   ///< page-local ordinal (synthesized on decode)
  int64_t itid = 0;  ///< page-local ordinal of the producing input
  int64_t did = 0;   ///< synthesized on decode from the page header
  Tuple payload;
};

/// \brief Buffered capture of one page's reuse records for one IE unit.
///
/// Parallel page evaluation cannot append to the unit's reuse files
/// mid-evaluation: appends must land in snapshot page order (dids
/// monotone) or the next generation's strictly-forward §5.2 scan would
/// skip groups. Workers therefore record each page's capture into a
/// PageCapture — one Group per distinct input region, in processing
/// order, with the group's σ-surviving outputs attached — and an ordered
/// write-back stage commits whole pages in snapshot order via
/// UnitReuseWriter::CommitPage. Ordinals are positional, so the files a
/// buffered run produces are byte-identical to serial execution.
struct PageCapture {
  struct Group {
    TextSpan region;
    uint64_t region_hash = 0;
    Tuple context;
    std::vector<Tuple> outputs;  ///< σ-surviving payloads for this region
  };
  std::vector<Group> groups;
};

/// \brief One page group of a unit's reuse files as framed bytes: the
/// records exactly as they sit in the files (8-byte length prefix +
/// payload each), their counts, and the digest of the page they were
/// captured over. A view: it points into the RawRun it came from.
struct RawPageSlice {
  uint64_t page_digest = 0;
  std::string_view in_bytes;
  int64_t n_inputs = 0;
  std::string_view out_bytes;
  int64_t n_outputs = 0;

  int64_t TotalBytes() const {
    return static_cast<int64_t>(in_bytes.size() + out_bytes.size());
  }
};

/// \brief Consecutive pages' groups lifted out of a unit's reuse files
/// without decoding: the zero-decode passthrough for byte-identical pages.
///
/// Produced by UnitReuseReader::BeginRun / LiftPage / EndRun as byte
/// ranges of the files, read back by LoadRun when the run commits, and
/// consumed by UnitReuseWriter::CommitRun. A page alone is the run of one.
struct RawRun {
  /// One range per stretch of adjacent groups: the groups' records and the
  /// old page headers between them, verbatim.
  std::vector<FileRange> in_ranges;
  std::vector<FileRange> out_ranges;
  /// The ranges read back to back (LoadRun); pages locate their groups
  /// here by offset.
  std::string in_bytes;
  std::string out_bytes;
  bool loaded = false;

  struct Page {
    int64_t did = 0;  ///< in the files it was lifted from
    /// The index entry's digest when `index_valid`, else 0.
    uint64_t page_digest = 0;
    /// The sidecar index has an entry for the page whose digest equals the
    /// expected one and whose offsets, lengths and counts agree with the
    /// scan: the precondition for committing the group raw.
    bool index_valid = false;
    int64_t in_offset = 0;  ///< into in_bytes
    int64_t in_length = 0;
    int64_t n_inputs = 0;
    int64_t out_offset = 0;  ///< into out_bytes
    int64_t out_length = 0;
    int64_t n_outputs = 0;
  };
  std::vector<Page> pages;

  /// Page `j`'s group, once loaded; views into this run.
  RawPageSlice Slice(size_t j) const;

  /// Whether page `j`'s loaded bytes hold its page headers (its old did
  /// and its counts) and records framed as the counts say: what the
  /// committer checks before relocating the page raw.
  bool PageHolds(size_t j) const;
};

/// \brief One page's entry in the per-unit sidecar page index (`.idx`).
///
/// Byte ranges are logical file offsets (RecordWriter::logical_size
/// coordinates) of the page's framed group records, *excluding* the page
/// header record. `page_digest` is the FNV-1a of the page content the
/// records were captured over: the raw passthrough only fires when the
/// digest equals the new run's old-page digest, so a work dir that drifted
/// out of sync with the corpus degrades to the decode path instead of
/// relocating stale records.
struct PageIndexEntry {
  int64_t did = 0;
  uint64_t page_digest = 0;
  int64_t in_offset = 0;
  int64_t in_bytes = 0;
  int64_t n_inputs = 0;
  int64_t out_offset = 0;
  int64_t out_bytes = 0;
  int64_t n_outputs = 0;
};

/// \brief Writer for one IE unit's reuse file triple (I_U, O_U, index).
///
/// Format v2, per file:
///   <prefix>.in   magic record, then per page: header record {did,
///                 n_groups} followed by n_groups input records
///                 {region, region_hash, context}
///   <prefix>.out  magic record, then per page: header record {did,
///                 n_outputs} followed by n_outputs records {iord,
///                 payload} — iord is the producing input's ordinal
///   <prefix>.idx  magic record, then one PageIndexEntry record per page
///
/// Every page gets a header (and an index entry) even when it produced no
/// tuples, so the reader's forward scan can distinguish "page had nothing"
/// from "page group missing". Appends are buffered one block per file
/// (§4). Commits must arrive in snapshot page order.
class UnitReuseWriter {
 public:
  UnitReuseWriter() = default;

  /// Creates `<path_prefix>.in`, `<path_prefix>.out`, `<path_prefix>.idx`.
  Status Open(const std::string& path_prefix);

  /// Appends one page's buffered capture: page headers, then one input
  /// record per group in order (ordinal = position), then each group's
  /// outputs tagged with the group ordinal. `page_digest` is the FNV-1a of
  /// the page content the capture was taken over (recorded in the index).
  Status CommitPage(int64_t did, uint64_t page_digest,
                    const PageCapture& capture);

  /// Appends pages [first, first + dids.size()) of `run` under `dids`,
  /// each page's records verbatim (no decode, no re-encode) between a
  /// fresh page header and a fresh index entry. Every such page must have
  /// lifted with a valid index entry. Given a run read from an equivalent
  /// capture, the files are byte-identical to CommitPage's output.
  Status CommitRun(const RawRun& run, size_t first,
                   std::span<const int64_t> dids);

  Status Close();

  IoStats CombinedStats() const;

 private:
  RecordWriter input_writer_;
  RecordWriter output_writer_;
  RecordWriter index_writer_;
  std::string scratch_;
};

/// \brief Sequential reader over one IE unit's reuse files.
///
/// §5.2 guarantees per-page tuple groups appear in processing order, so a
/// single forward scan serves all pages; SeekPage and LiftPage never
/// rewind. A did whose group has already been passed (possible only if the
/// snapshot order was perturbed) yields an empty group, which degrades
/// reuse but never correctness.
///
/// The sidecar index is loaded wholesale at Open. A missing, truncated, or
/// corrupt index never fails Open: `has_page_index()` turns false and
/// LiftPage reports `index_valid = false`, pushing callers onto the
/// decode path — degrade, never miscompute.
class UnitReuseReader {
 public:
  UnitReuseReader() = default;

  /// Opens `<path_prefix>.in` / `.out` (failure here is an error) and
  /// `<path_prefix>.idx` (failure here just disables the index).
  Status Open(const std::string& path_prefix);

  /// True when the sidecar page index loaded cleanly.
  bool has_page_index() const { return index_ok_; }

  /// Index entry for `did`, or nullptr (also when the index is disabled).
  const PageIndexEntry* FindIndexEntry(int64_t did) const;

  /// Scans forward to page `did`, filling that page's input and output
  /// tuples (empty if the page has none or was already passed). Decoded
  /// records carry synthesized page-local ordinals as tids.
  Status SeekPage(int64_t did, std::vector<InputTupleRec>* inputs,
                  std::vector<OutputTupleRec>* outputs);

  /// Starts lifting a run of pages into `*run` (cleared). Until EndRun,
  /// LiftPage adds pages to it; SeekPage must not be called.
  void BeginRun(RawRun* run);

  /// Moves the scan forward to page `did` and lifts its groups into the run
  /// as byte ranges, neither decoded nor copied. `*found` reports whether
  /// they were reached; if so, the page is appended to the run with
  /// `index_valid` as RawRun::Page defines it against `expected_digest`.
  /// Groups an entry places right where the scan is are taken unread (the
  /// committer checks them, RawRun::PageHolds); otherwise the scan reads
  /// the headers, and without a valid entry walks the records, so the
  /// groups can still be decoded once loaded (CaptureFromRawSlice).
  Status LiftPage(int64_t did, uint64_t expected_digest, bool* found,
                  bool* index_valid);

  /// Ends the run after its first `keep` pages. Later lifted pages leave
  /// the run; their groups count as passed.
  void EndRun(size_t keep);

  /// Reads `run`'s ranges back into its bytes (positioned reads, safe from
  /// any thread while the reader is open). A no-op once loaded.
  Status LoadRun(RawRun* run) const;

  Status Close();

  IoStats CombinedStats() const;

 private:
  Status CheckMagic(PageGroupScanner* scanner, std::string_view magic);
  Status LoadIndex(const std::string& path);
  /// Re-states the reader's reuse_reader memory charge (index + buffers).
  void UpdateMemCharge();

  PageGroupScanner input_;
  PageGroupScanner output_;
  RawRun* run_ = nullptr;
  std::unordered_map<int64_t, PageIndexEntry> index_;
  bool index_ok_ = false;
  IoStats index_io_;
  obs::ScopedMemCharge mem_{obs::MemTag::kReuseReader};
};

/// Encoding helpers (exposed for tests). Format v2: input/output records
/// carry no tid/did — DecodeInputTuple/DecodeOutputTuple leave those
/// fields zero for the caller to synthesize.
void EncodeInputTuple(const InputTupleRec& rec, std::string* out);
void EncodeOutputTuple(const OutputTupleRec& rec, std::string* out);
Result<InputTupleRec> DecodeInputTuple(std::string_view data);
Result<OutputTupleRec> DecodeOutputTuple(std::string_view data);
void EncodePageIndexEntry(const PageIndexEntry& entry, std::string* out);
Result<PageIndexEntry> DecodePageIndexEntry(std::string_view data);

/// \brief Decodes a RawPageSlice into the records SeekPage would have
/// produced for page `did` — the fallback when a group was lifted but its
/// index entry failed validation.
Status DecodeRawPageSlice(const RawPageSlice& slice, int64_t did,
                          std::vector<InputTupleRec>* inputs,
                          std::vector<OutputTupleRec>* outputs);

/// \brief Rebuilds the PageCapture whose CommitPage would reproduce
/// `slice` byte for byte. Used for the decode-copy tier of the
/// identical-page fast path: the page didn't change, so its new capture
/// *is* its old records.
Status CaptureFromRawSlice(const RawPageSlice& slice, PageCapture* capture);

}  // namespace delex

#endif  // DELEX_STORAGE_REUSE_FILE_H_
