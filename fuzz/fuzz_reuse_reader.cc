// Harness: UnitReuseReader over an adversarial file triple (src/storage).
//
// The reader owns the `.in` / `.out` / `.idx` trust boundary: a work dir
// can hold truncated, bit-flipped, or version-skewed files, and every
// byte must be validated before any allocation or memcpy. The input
// selects the three files' contents; the harness then drives the same
// call sequence the engine uses — forward SeekPage per evaluated page,
// and runs of pages lifted raw (BeginRun / LiftPage / EndRun) — and
// re-validates the digest-guarded raw path: the pages of a run the reader
// blesses as `index_valid` must survive a raw re-commit (CommitRun) and
// lift back, as one run, with the bytes and counts they had.

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "storage/reuse_file.h"

using delex::InputTupleRec;
using delex::OutputTupleRec;
using delex::RawPageSlice;
using delex::RawRun;
using delex::Status;
using delex::UnitReuseReader;
using delex::UnitReuseWriter;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  delex::fuzz::FuzzCursor cursor(data, size);
  // Layout: [u64 digest][u16 in_len][u16 out_len][in bytes][out bytes][idx].
  const uint64_t digest = cursor.U64();
  const size_t in_len = static_cast<size_t>(cursor.Byte()) << 8 | cursor.Byte();
  const size_t out_len =
      static_cast<size_t>(cursor.Byte()) << 8 | cursor.Byte();
  const std::string in_bytes = cursor.Bytes(in_len);
  const std::string out_bytes = cursor.Bytes(out_len);
  const std::string idx_bytes = cursor.Rest();

  const std::string prefix = delex::fuzz::ScratchDir() + "/unit0.gen0";
  delex::fuzz::WriteFileOrDie(prefix + ".in", in_bytes);
  delex::fuzz::WriteFileOrDie(prefix + ".out", out_bytes);
  delex::fuzz::WriteFileOrDie(prefix + ".idx", idx_bytes);

  UnitReuseReader reader;
  if (!reader.Open(prefix).ok()) return 0;

  std::vector<InputTupleRec> inputs;
  std::vector<OutputTupleRec> outputs;
  // Runs over dids 0-1 and 3-4 (the demoted-page shape: a run ends at the
  // first page whose group is missing or fails its index entry), decoded
  // seeks at 2 and 5.
  for (int64_t first : {0, 3}) {
    RawRun run;
    reader.BeginRun(&run);
    Status st;
    size_t keep = 0;
    for (int64_t did = first; did < first + 2; ++did) {
      bool found = false;
      bool index_valid = false;
      st = reader.LiftPage(did, digest, &found, &index_valid);
      if (!st.ok() || !found || !index_valid) break;
      ++keep;
    }
    reader.EndRun(keep);
    if (run.pages.size() != keep) __builtin_trap();
    // The kept groups' ranges lie inside the files the scan read.
    if (!reader.LoadRun(&run).ok()) __builtin_trap();
    if (keep > 0) {
      // Every kept page agreed with its index entry, so the run is
      // eligible for the zero-decode relocation. Re-commit it raw and lift
      // the copy back as one run: every page must scan cleanly and keep
      // its bytes and counts (payload decoding may still fail later —
      // that degrades, it doesn't crash).
      const std::string copy = delex::fuzz::ScratchDir() + "/unit0.gen1";
      std::vector<int64_t> dids;
      for (size_t j = 0; j < keep; ++j) dids.push_back(100 + 2 * static_cast<int64_t>(j));
      UnitReuseWriter writer;
      if (!writer.Open(copy).ok() || !writer.CommitRun(run, 0, dids).ok() ||
          !writer.Close().ok()) {
        __builtin_trap();
      }
      UnitReuseReader verify;
      if (!verify.Open(copy).ok()) __builtin_trap();
      RawRun round;
      verify.BeginRun(&round);
      for (size_t j = 0; j < keep; ++j) {
        bool round_found = false;
        bool round_valid = false;
        if (!verify.LiftPage(dids[j], run.Slice(j).page_digest, &round_found,
                             &round_valid)
                 .ok() ||
            !round_found || !round_valid) {
          __builtin_trap();
        }
      }
      verify.EndRun(keep);
      if (!verify.LoadRun(&round).ok()) __builtin_trap();
      for (size_t j = 0; j < keep; ++j) {
        const RawPageSlice a = run.Slice(j);
        const RawPageSlice b = round.Slice(j);
        if (a.n_inputs != b.n_inputs || a.n_outputs != b.n_outputs ||
            a.in_bytes != b.in_bytes || a.out_bytes != b.out_bytes) {
          __builtin_trap();
        }
      }
      verify.Close().ok();
    }
    if (!st.ok()) break;
    const int64_t seek_did = first + 2;
    if (!reader.SeekPage(seek_did, &inputs, &outputs).ok()) break;
    // Decoded groups carry synthesized page-local ordinals: dense tids,
    // uniform did, outputs referencing existing inputs.
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (inputs[i].tid != static_cast<int64_t>(i)) __builtin_trap();
      if (inputs[i].did != seek_did) __builtin_trap();
    }
    for (const OutputTupleRec& out : outputs) {
      if (out.did != seek_did) __builtin_trap();
      if (out.itid < 0 || out.itid >= static_cast<int64_t>(inputs.size())) {
        __builtin_trap();
      }
    }
  }
  reader.Close().ok();
  return 0;
}
