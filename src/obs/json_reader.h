#ifndef DELEX_OBS_JSON_READER_H_
#define DELEX_OBS_JSON_READER_H_

// Minimal JSON reader — the inverse of obs/json_writer.h, sized for the
// observability artifacts this repo itself produces (run-report lines,
// which history records frame). Header-only so the history reader and
// the delex_inspect tool share one parser without a new library.
//
// Scope (deliberately small, not a general-purpose JSON library):
//   - numbers are doubles (every count we serialize fits in the 2^53
//     exact-integer range; checksums travel as hex strings);
//   - objects preserve insertion order and keep the LAST value for a
//     duplicated key (duplicates never appear in our own output);
//   - input must be a single JSON value; trailing garbage is an error.
// Malformed input yields Status::Corruption — parsing untrusted bytes
// must degrade, never abort (same contract as the storage decoders).

#include <cctype>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace delex {
namespace obs {

/// \brief One parsed JSON value (tagged union, plain members).
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return kind == kObject; }
  bool is_array() const { return kind == kArray; }

  /// Member lookup; a shared null value when absent or not an object.
  const JsonValue& At(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return v;
    }
    static const JsonValue missing;
    return missing;
  }
  bool Has(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        (void)v;
        return true;
      }
    }
    return false;
  }

  /// Typed accessors with defaults — absent/mistyped members read as the
  /// fallback, so callers probing optional fields stay branch-free.
  double NumberOr(double fallback) const {
    return kind == kNumber ? number : fallback;
  }
  int64_t IntOr(int64_t fallback) const {
    return kind == kNumber ? static_cast<int64_t>(number) : fallback;
  }
  bool BoolOr(bool fallback) const {
    return kind == kBool ? boolean : fallback;
  }
  std::string StringOr(std::string fallback) const {
    return kind == kString ? string : std::move(fallback);
  }
};

namespace json_internal {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Status Parse(JsonValue* out) {
    DELEX_RETURN_NOT_OK(ParseValue(out, /*depth=*/0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::Corruption("trailing bytes after JSON value");
    }
    return Status::OK();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Status::Corruption("expected string");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::Corruption("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Status::Corruption("bad \\u escape digit");
            }
          }
          // Our own writer only emits \u00XX for control bytes; decode
          // the latin-1 range and pass anything else through UTF-8.
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Status::Corruption("unknown escape in string");
      }
    }
    return Status::Corruption("unterminated string");
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Status::Corruption("JSON nested too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Status::Corruption("unexpected end");
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      SkipSpace();
      if (Consume('}')) return Status::OK();
      for (;;) {
        std::string key;
        DELEX_RETURN_NOT_OK(ParseString(&key));
        if (!Consume(':')) return Status::Corruption("expected ':'");
        JsonValue value;
        DELEX_RETURN_NOT_OK(ParseValue(&value, depth + 1));
        out->object.emplace_back(std::move(key), std::move(value));
        if (Consume(',')) {
          SkipSpace();
          continue;
        }
        if (Consume('}')) return Status::OK();
        return Status::Corruption("expected ',' or '}' in object");
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      SkipSpace();
      if (Consume(']')) return Status::OK();
      for (;;) {
        JsonValue value;
        DELEX_RETURN_NOT_OK(ParseValue(&value, depth + 1));
        out->array.push_back(std::move(value));
        if (Consume(',')) continue;
        if (Consume(']')) return Status::OK();
        return Status::Corruption("expected ',' or ']' in array");
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out->kind = JsonValue::kBool;
      out->boolean = true;
      return Status::OK();
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out->kind = JsonValue::kBool;
      out->boolean = false;
      return Status::OK();
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      out->kind = JsonValue::kNull;
      return Status::OK();
    }
    // Number: strtod from a bounded, NUL-terminated copy (string_view is
    // not NUL-terminated; a number token is tiny).
    size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) return Status::Corruption("unexpected character");
    std::string token(text_.substr(pos_, end - pos_));
    char* parsed_end = nullptr;
    double value = std::strtod(token.c_str(), &parsed_end);
    if (parsed_end == token.c_str() || *parsed_end != '\0') {
      return Status::Corruption("malformed number");
    }
    pos_ = end;
    out->kind = JsonValue::kNumber;
    out->number = value;
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace json_internal

/// Parses one complete JSON value. Malformed input is Corruption.
inline Status ParseJson(std::string_view text, JsonValue* out) {
  *out = JsonValue();
  return json_internal::Parser(text).Parse(out);
}

}  // namespace obs
}  // namespace delex

#endif  // DELEX_OBS_JSON_READER_H_
