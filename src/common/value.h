#ifndef DELEX_COMMON_VALUE_H_
#define DELEX_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/span.h"
#include "common/status.h"

namespace delex {

/// \brief A single attribute value flowing through an execution tree.
///
/// Span values are first-class (not plain pairs of ints) because reuse must
/// relocate every span in a copied tuple by the match offset; all other
/// value kinds are copied verbatim (§4, the c / c' components).
using Value = std::variant<int64_t, double, bool, std::string, TextSpan>;

/// \brief A tuple of values. Delex treats tuples positionally; names live
/// in the schema owned by the plan node.
using Tuple = std::vector<Value>;

/// Kind tags used by the binary serialization (stable on-disk format).
enum class ValueKind : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kBool = 2,
  kString = 3,
  kSpan = 4,
};

/// \brief Appends the binary encoding of `value` to `out`.
void EncodeValue(const Value& value, std::string* out);

/// \brief Appends the binary encoding of `tuple` (count-prefixed) to `out`.
void EncodeTuple(const Tuple& tuple, std::string* out);

/// \brief Decodes one value from `data` starting at `*offset`, advancing it.
Result<Value> DecodeValue(std::string_view data, size_t* offset);

/// \brief Decodes a count-prefixed tuple from `data` starting at `*offset`.
Result<Tuple> DecodeTuple(std::string_view data, size_t* offset);

/// \brief DecodeTuple's steps one at a time, for a decoder that knows its
/// record's shape and builds no Tuple: the count prefix, then values of an
/// expected kind. Each advances `*offset` and makes DecodeValue's bounds
/// checks; another kind tag is Corruption too. A decoded string is a view
/// into `data`.
Result<uint64_t> DecodeTupleCount(std::string_view data, size_t* offset);
Result<int64_t> DecodeInt64(std::string_view data, size_t* offset);
Result<std::string_view> DecodeStringView(std::string_view data,
                                          size_t* offset);

/// \brief Shifts every TextSpan value in `tuple` by `delta` characters.
///
/// This is the relocation step of mention copying: a tuple recorded against
/// old page q is re-based into new page p coordinates.
void ShiftSpans(Tuple* tuple, int64_t delta);

/// \brief The envelope [min start, max end) of all span values in `tuple`,
/// or an empty span at 0 if the tuple has no spans.
///
/// Definition 2's scope α bounds exactly this envelope; the copy-safety
/// window is the envelope expanded by context β.
TextSpan SpanEnvelope(const Tuple& tuple);

/// \brief True iff the tuple contains at least one span value.
bool HasSpan(const Tuple& tuple);

/// \brief Renders a tuple for debugging/tests: (42, "x", [3,9)).
std::string TupleToString(const Tuple& tuple);

/// \brief Total ordering over values (kind-major) for canonical sorting of
/// result sets in correctness comparisons.
bool ValueLess(const Value& a, const Value& b);
bool TupleLess(const Tuple& a, const Tuple& b);

}  // namespace delex

#endif  // DELEX_COMMON_VALUE_H_
