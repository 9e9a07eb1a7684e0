// Harness: the per-generation page result cache (src/storage).
//
// `results.gen<N>` is read back one generation later by the
// identical-page fast path, in runs of pages; a corrupted cache must
// surface as Status / found=false — the engine then demotes the page —
// never as a crash. Pages the reader does lift must decode into exactly
// the advertised number of rows, each carrying the requested did, and a
// run re-committed raw must lift back with the same bytes.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "storage/result_cache.h"

using delex::DecodeResultSlice;
using delex::ResultCacheReader;
using delex::ResultCacheWriter;
using delex::ResultPageSlice;
using delex::ResultRun;
using delex::Status;
using delex::Tuple;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string path = delex::fuzz::ScratchDir() + "/results.gen0";
  delex::fuzz::WriteFileOrDie(
      path, std::string_view(reinterpret_cast<const char*>(data), size));

  ResultCacheReader reader;
  if (!reader.Open(path).ok()) return 0;
  for (int64_t first : {0, 3}) {
    ResultRun run;
    reader.BeginRun(&run);
    Status st;
    size_t keep = 0;
    for (int64_t did = first; did < first + 3; ++did) {
      bool found = false;
      st = reader.LiftPage(did, &found);
      if (!st.ok() || !found) break;
      ++keep;
    }
    reader.EndRun(keep);
    if (run.pages.size() != keep) __builtin_trap();
    if (!reader.LoadRun(&run).ok()) __builtin_trap();
    std::vector<int64_t> dids;
    for (size_t j = 0; j < keep; ++j) {
      const int64_t did = first + static_cast<int64_t>(j);
      dids.push_back(did + 10);
      const ResultPageSlice slice = run.Slice(j);
      std::vector<Tuple> rows;
      if (!DecodeResultSlice(slice, did, &rows).ok()) {
        if (!rows.empty()) __builtin_trap();  // a failed decode adds nothing
        continue;  // payload corruption degrades upstream
      }
      if (static_cast<int64_t>(rows.size()) != slice.n_rows) __builtin_trap();
      for (const Tuple& row : rows) {
        // DecodeResultSlice prefixes every row with the requested did.
        if (row.empty() || !std::holds_alternative<int64_t>(row[0]) ||
            std::get<int64_t>(row[0]) != did) {
          __builtin_trap();
        }
      }
    }
    if (keep > 0) {
      // The raw re-commit of the run lifts back page for page.
      const std::string copy = delex::fuzz::ScratchDir() + "/results.gen1";
      ResultCacheWriter writer;
      if (!writer.Open(copy).ok() || !writer.CommitRun(run, 0, dids).ok() ||
          !writer.Close().ok()) {
        __builtin_trap();
      }
      ResultCacheReader verify;
      if (!verify.Open(copy).ok()) __builtin_trap();
      ResultRun round;
      verify.BeginRun(&round);
      for (int64_t did : dids) {
        bool found = false;
        if (!verify.LiftPage(did, &found).ok() || !found) __builtin_trap();
      }
      verify.EndRun(keep);
      if (!verify.LoadRun(&round).ok()) __builtin_trap();
      for (size_t j = 0; j < keep; ++j) {
        if (round.Slice(j).bytes != run.Slice(j).bytes ||
            round.Slice(j).n_rows != run.Slice(j).n_rows) {
          __builtin_trap();
        }
      }
      verify.Close().ok();
    }
    if (!st.ok()) break;
  }
  reader.Close().ok();
  return 0;
}
