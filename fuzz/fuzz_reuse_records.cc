// Harness: reuse-format v2 record payload decoding (src/storage).
//
// Covers the per-record decoders (input tuples, output tuples, page
// index entries) plus the raw-slice machinery (DecodeRawPageSlice /
// CaptureFromRawSlice) that the identical-page fast path trusts.
// Successful decodes are round-tripped through the encoders; a decode
// that succeeds but re-encodes differently would silently corrupt the
// next generation's files.

#include <cstdint>
#include <string>
#include <string_view>

#include "fuzz/fuzz_util.h"
#include "storage/reuse_file.h"

using delex::CaptureFromRawSlice;
using delex::DecodeInputTuple;
using delex::DecodeOutputTuple;
using delex::DecodePageIndexEntry;
using delex::DecodeRawPageSlice;
using delex::EncodeInputTuple;
using delex::EncodeOutputTuple;
using delex::EncodePageIndexEntry;
using delex::PageCapture;
using delex::RawPageSlice;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  delex::fuzz::FuzzCursor cursor(data, size);
  const uint8_t mode = cursor.Byte();
  const std::string bytes = cursor.Rest();

  switch (mode % 4) {
    case 0: {
      auto rec = DecodeInputTuple(bytes);
      if (rec.ok()) {
        std::string encoded;
        EncodeInputTuple(*rec, &encoded);
        if (!DecodeInputTuple(encoded).ok()) __builtin_trap();
      }
      break;
    }
    case 1: {
      auto rec = DecodeOutputTuple(bytes);
      if (rec.ok()) {
        std::string encoded;
        EncodeOutputTuple(*rec, &encoded);
        if (!DecodeOutputTuple(encoded).ok()) __builtin_trap();
      }
      break;
    }
    case 2: {
      auto entry = DecodePageIndexEntry(bytes);
      if (entry.ok()) {
        std::string encoded;
        EncodePageIndexEntry(*entry, &encoded);
        auto again = DecodePageIndexEntry(encoded);
        if (!again.ok() || again->did != entry->did) __builtin_trap();
      }
      break;
    }
    case 3: {
      // Raw slice: first bytes pick the in/out split and advertised
      // counts, the rest is framed-record soup.
      delex::fuzz::FuzzCursor inner(
          reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
      RawPageSlice slice;
      slice.n_inputs = inner.Int(0, 8);
      slice.n_outputs = inner.Int(0, 8);
      const size_t split =
          static_cast<size_t>(inner.Int(0, static_cast<int64_t>(inner.remaining())));
      const std::string in_bytes = inner.Bytes(split);
      const std::string out_bytes = inner.Rest();
      slice.in_bytes = in_bytes;
      slice.out_bytes = out_bytes;
      std::vector<delex::InputTupleRec> inputs;
      std::vector<delex::OutputTupleRec> outputs;
      auto st = DecodeRawPageSlice(slice, /*did=*/7, &inputs, &outputs);
      if (st.ok()) {
        // The decode validated counts; the capture rebuild must agree.
        PageCapture capture;
        if (!CaptureFromRawSlice(slice, &capture).ok()) __builtin_trap();
        if (capture.groups.size() != inputs.size()) __builtin_trap();
      }
      break;
    }
  }
  return 0;
}
