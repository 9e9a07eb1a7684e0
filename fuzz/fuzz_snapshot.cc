// Harness: snapshot (de)serialization (src/storage).
//
// Snapshots come off disk in bench/CI replay flows; ReadSnapshot must
// reject arbitrary bytes with a Status. An accepted snapshot must be
// internally consistent: every page findable by url, every digest equal
// to Fnv1a64 of its content (ReadSnapshot computes them in one batch),
// and a write/read round trip that preserves page count and bytes.

#include <cstdint>
#include <string>

#include "common/hash.h"
#include "fuzz/fuzz_util.h"
#include "storage/snapshot.h"

using delex::ReadSnapshot;
using delex::Snapshot;
using delex::WriteSnapshot;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string path = delex::fuzz::ScratchDir() + "/snapshot.bin";
  delex::fuzz::WriteFileOrDie(
      path, std::string_view(reinterpret_cast<const char*>(data), size));

  auto snapshot = ReadSnapshot(path);
  if (!snapshot.ok()) return 0;

  for (const delex::Page& page : snapshot->pages()) {
    auto idx = snapshot->FindByUrl(page.url);
    if (!idx.has_value()) __builtin_trap();
    if (page.content_hash != delex::Fnv1a64(page.content)) __builtin_trap();
  }

  const std::string copy = delex::fuzz::ScratchDir() + "/snapshot_copy.bin";
  if (!WriteSnapshot(*snapshot, copy).ok()) __builtin_trap();
  auto again = ReadSnapshot(copy);
  if (!again.ok() || again->NumPages() != snapshot->NumPages()) {
    __builtin_trap();
  }
  for (size_t i = 0; i < again->pages().size(); ++i) {
    if (again->pages()[i].content != snapshot->pages()[i].content) {
      __builtin_trap();
    }
  }
  return 0;
}
