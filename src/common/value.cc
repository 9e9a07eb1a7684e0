#include "common/value.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace delex {
namespace {

void PutFixed64(uint64_t v, std::string* out) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, 8);
}

bool GetFixed64(std::string_view data, size_t* offset, uint64_t* v) {
  if (*offset + 8 > data.size()) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(
               static_cast<unsigned char>(data[*offset + static_cast<size_t>(i)]))
           << (8 * i);
  }
  *offset += 8;
  *v = out;
  return true;
}

/// A string value's length and body, the kind byte already consumed.
Status GetStringBody(std::string_view data, size_t* offset,
                     std::string_view* body) {
  uint64_t length = 0;
  if (!GetFixed64(data, offset, &length)) {
    return Status::Corruption("value: truncated string length");
  }
  // Overflow-safe form: `*offset + length` wraps for a corrupt length near
  // UINT64_MAX and would pass the naive comparison.
  if (length > data.size() - *offset) {
    return Status::Corruption("value: truncated string body");
  }
  *body = data.substr(*offset, length);
  *offset += length;
  return Status::OK();
}

/// Consumes the kind byte, which must be `kind`.
Status ExpectKind(std::string_view data, size_t* offset, ValueKind kind) {
  if (*offset >= data.size()) {
    return Status::Corruption("value: truncated kind byte");
  }
  if (data[*offset] != static_cast<char>(kind)) {
    return Status::Corruption("value: unexpected kind tag");
  }
  ++*offset;
  return Status::OK();
}

}  // namespace

void EncodeValue(const Value& value, std::string* out) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    out->push_back(static_cast<char>(ValueKind::kInt64));
    PutFixed64(static_cast<uint64_t>(*i), out);
  } else if (const auto* d = std::get_if<double>(&value)) {
    out->push_back(static_cast<char>(ValueKind::kDouble));
    uint64_t bits;
    std::memcpy(&bits, d, 8);
    PutFixed64(bits, out);
  } else if (const auto* b = std::get_if<bool>(&value)) {
    out->push_back(static_cast<char>(ValueKind::kBool));
    out->push_back(*b ? 1 : 0);
  } else if (const auto* s = std::get_if<std::string>(&value)) {
    out->push_back(static_cast<char>(ValueKind::kString));
    PutFixed64(s->size(), out);
    out->append(*s);
  } else {
    const TextSpan& span = std::get<TextSpan>(value);
    out->push_back(static_cast<char>(ValueKind::kSpan));
    PutFixed64(static_cast<uint64_t>(span.start), out);
    PutFixed64(static_cast<uint64_t>(span.end), out);
  }
}

void EncodeTuple(const Tuple& tuple, std::string* out) {
  PutFixed64(tuple.size(), out);
  for (const Value& v : tuple) EncodeValue(v, out);
}

Result<Value> DecodeValue(std::string_view data, size_t* offset) {
  if (*offset >= data.size()) {
    return Status::Corruption("value: truncated kind byte");
  }
  auto kind = static_cast<ValueKind>(data[(*offset)++]);
  uint64_t raw = 0;
  switch (kind) {
    case ValueKind::kInt64:
      if (!GetFixed64(data, offset, &raw)) {
        return Status::Corruption("value: truncated int64");
      }
      return Value(static_cast<int64_t>(raw));
    case ValueKind::kDouble: {
      if (!GetFixed64(data, offset, &raw)) {
        return Status::Corruption("value: truncated double");
      }
      double d;
      std::memcpy(&d, &raw, 8);
      return Value(d);
    }
    case ValueKind::kBool:
      if (*offset >= data.size()) {
        return Status::Corruption("value: truncated bool");
      }
      return Value(data[(*offset)++] != 0);
    case ValueKind::kString: {
      std::string_view body;
      DELEX_RETURN_NOT_OK(GetStringBody(data, offset, &body));
      return Value(std::string(body));
    }
    case ValueKind::kSpan: {
      uint64_t start = 0;
      uint64_t end = 0;
      if (!GetFixed64(data, offset, &start) || !GetFixed64(data, offset, &end)) {
        return Status::Corruption("value: truncated span");
      }
      return Value(TextSpan(static_cast<int64_t>(start), static_cast<int64_t>(end)));
    }
  }
  return Status::Corruption("value: unknown kind tag");
}

Result<Tuple> DecodeTuple(std::string_view data, size_t* offset) {
  DELEX_ASSIGN_OR_RETURN(uint64_t count, DecodeTupleCount(data, offset));
  Tuple tuple;
  // The count is untrusted: every value costs at least one encoded byte,
  // so clamp the reservation to the bytes actually present — a corrupt
  // count then fails with "truncated kind byte" instead of OOM.
  tuple.reserve(static_cast<size_t>(
      std::min<uint64_t>(count, data.size() - *offset)));
  for (uint64_t i = 0; i < count; ++i) {
    DELEX_ASSIGN_OR_RETURN(Value v, DecodeValue(data, offset));
    tuple.push_back(std::move(v));
  }
  return tuple;
}

Result<uint64_t> DecodeTupleCount(std::string_view data, size_t* offset) {
  uint64_t count = 0;
  if (!GetFixed64(data, offset, &count)) {
    return Status::Corruption("tuple: truncated count");
  }
  return count;
}

Result<int64_t> DecodeInt64(std::string_view data, size_t* offset) {
  DELEX_RETURN_NOT_OK(ExpectKind(data, offset, ValueKind::kInt64));
  uint64_t raw = 0;
  if (!GetFixed64(data, offset, &raw)) {
    return Status::Corruption("value: truncated int64");
  }
  return static_cast<int64_t>(raw);
}

Result<std::string_view> DecodeStringView(std::string_view data,
                                          size_t* offset) {
  DELEX_RETURN_NOT_OK(ExpectKind(data, offset, ValueKind::kString));
  std::string_view body;
  DELEX_RETURN_NOT_OK(GetStringBody(data, offset, &body));
  return body;
}

void ShiftSpans(Tuple* tuple, int64_t delta) {
  for (Value& v : *tuple) {
    if (auto* span = std::get_if<TextSpan>(&v)) {
      *span = span->Shift(delta);
    }
  }
}

TextSpan SpanEnvelope(const Tuple& tuple) {
  bool any = false;
  TextSpan envelope;
  for (const Value& v : tuple) {
    if (const auto* span = std::get_if<TextSpan>(&v)) {
      if (!any) {
        envelope = *span;
        any = true;
      } else {
        envelope.start = std::min(envelope.start, span->start);
        envelope.end = std::max(envelope.end, span->end);
      }
    }
  }
  return any ? envelope : TextSpan();
}

bool HasSpan(const Tuple& tuple) {
  for (const Value& v : tuple) {
    if (std::holds_alternative<TextSpan>(v)) return true;
  }
  return false;
}

std::string TupleToString(const Tuple& tuple) {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) os << ", ";
    const Value& v = tuple[i];
    if (const auto* iv = std::get_if<int64_t>(&v)) {
      os << *iv;
    } else if (const auto* dv = std::get_if<double>(&v)) {
      os << *dv;
    } else if (const auto* bv = std::get_if<bool>(&v)) {
      os << (*bv ? "true" : "false");
    } else if (const auto* sv = std::get_if<std::string>(&v)) {
      os << '"' << *sv << '"';
    } else {
      os << std::get<TextSpan>(v).ToString();
    }
  }
  os << ")";
  return os.str();
}

bool ValueLess(const Value& a, const Value& b) {
  if (a.index() != b.index()) return a.index() < b.index();
  return std::visit(
      [&](const auto& lhs) {
        using T = std::decay_t<decltype(lhs)>;
        return lhs < std::get<T>(b);
      },
      a);
}

bool TupleLess(const Tuple& a, const Tuple& b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const Value& x, const Value& y) { return ValueLess(x, y); });
}

}  // namespace delex
