#include "net/json.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdint>

#include "common/parse.h"

namespace juggler::net {

namespace {

const std::string kEmptyString;
const Json::Array kEmptyArray;
const Json::Object kEmptyObject;

/// Appends `code_point` to `out` as UTF-8.
void AppendUtf8(std::string* out, uint32_t code_point) {
  if (code_point <= 0x7F) {
    out->push_back(static_cast<char>(code_point));
  } else if (code_point <= 0x7FF) {
    out->push_back(static_cast<char>(0xC0 | (code_point >> 6)));
    out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else if (code_point <= 0xFFFF) {
    out->push_back(static_cast<char>(0xE0 | (code_point >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (code_point >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  }
}

}  // namespace

/// Recursive-descent parser over a raw byte range. Every value is filled in
/// place (members and elements are parsed into their final slot, never
/// moved) and numbers convert from the text range itself. Error messages
/// carry the byte offset so malformed request bodies are diagnosable from
/// logs.
class Json::Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Json> ParseDocument() {
    Json value;
    JUGGLER_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  /// Slots reserved when a container gets its first member or element: the
  /// API's objects have 2-7 members, so most never grow again.
  static constexpr size_t kInitialCapacity = 4;

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Parses one value into `out`, a fresh null.
  Status ParseValue(Json* out, int depth) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      // `depth` counts enclosing containers, so the check sits on the two
      // container openers: a document of exactly kMaxDepth nested
      // arrays/objects (scalars inside included) parses; kMaxDepth + 1 is
      // an error before any recursion toward stack exhaustion.
      case '{':
        if (depth >= Json::kMaxDepth) return Error("nesting too deep");
        return ParseObject(out, depth);
      case '[':
        if (depth >= Json::kMaxDepth) return Error("nesting too deep");
        return ParseArray(out, depth);
      case '"':
        out->type_ = Type::kString;
        return ParseString(&out->string_);
      case 't':
        out->type_ = Type::kBool;
        out->bool_ = true;
        return ParseLiteral("true");
      case 'f':
        out->type_ = Type::kBool;
        return ParseLiteral("false");
      case 'n':
        return ParseLiteral("null");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view literal) {
    for (const char expected : literal) {
      if (pos_ >= text_.size() || text_[pos_] != expected) {
        return Error("expected '" + std::string(literal) + "'");
      }
      ++pos_;
    }
    return Status::OK();
  }

  Status ParseNumber(Json* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
      return Error("invalid number");
    }
    // Grammar check first (the converter is laxer than JSON: it accepts
    // "1." and leading zeros), then convert exactly the checked range.
    auto digits = [this] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    };
    if (text_[pos_] == '0') {
      ++pos_;  // Leading zero must not be followed by more digits.
      if (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        return Error("leading zero in number");
      }
    } else {
      digits();
    }
    if (Consume('.')) {
      const size_t frac_start = pos_;
      digits();
      if (pos_ == frac_start) return Error("missing digits after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const size_t exp_start = pos_;
      digits();
      if (pos_ == exp_start) return Error("missing exponent digits");
    }
    if (!ParseFiniteDouble(text_.substr(start, pos_ - start), &out->number_)) {
      return Error("number out of range");
    }
    out->type_ = Type::kNumber;
    return Status::OK();
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (true) {
      // Copy the run of plain bytes before the next quote, backslash or
      // control byte in one append.
      const size_t run = pos_;
      while (pos_ < text_.size()) {
        const char c = text_[pos_];
        if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
          break;
        }
        ++pos_;
      }
      out->append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') return Error("unescaped control character in string");
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t code_point = 0;
          JUGGLER_RETURN_IF_ERROR(ParseHex4(&code_point));
          if (code_point >= 0xD800 && code_point <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (!(Consume('\\') && Consume('u'))) {
              return Error("unpaired surrogate");
            }
            uint32_t low = 0;
            JUGGLER_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            code_point =
                0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
          } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
            return Error("unpaired surrogate");
          }
          AppendUtf8(out, code_point);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Status ParseArray(Json* out, int depth) {
    Consume('[');
    out->type_ = Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    out->array_.reserve(kInitialCapacity);
    while (true) {
      JUGGLER_RETURN_IF_ERROR(
          ParseValue(&out->array_.emplace_back(), depth + 1));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(Json* out, int depth) {
    Consume('{');
    out->type_ = Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    out->object_.reserve(kInitialCapacity);
    while (true) {
      SkipWhitespace();
      auto& [key, value] = out->object_.emplace_back();
      JUGGLER_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JUGGLER_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  const std::string_view text_;
  size_t pos_ = 0;
};

Json Json::Bool(bool value) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = value;
  return j;
}

Json Json::Number(double value) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = value;
  return j;
}

Json Json::Str(std::string value) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(value);
  return j;
}

Json Json::Arr() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Obj() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

const std::string& Json::string_value() const {
  return is_string() ? string_ : kEmptyString;
}

const Json::Array& Json::array_items() const {
  return is_array() ? array_ : kEmptyArray;
}

const Json::Object& Json::object_items() const {
  return is_object() ? object_ : kEmptyObject;
}

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double Json::NumberOr(std::string_view key, double fallback) const {
  const Json* found = Find(key);
  return (found != nullptr && found->is_number()) ? found->number_value()
                                                  : fallback;
}

std::string Json::StringOr(std::string_view key,
                           std::string fallback) const {
  const Json* found = Find(key);
  return (found != nullptr && found->is_string()) ? found->string_value()
                                                  : std::move(fallback);
}

Json& Json::Set(std::string key, Json value) {
  if (!is_object()) *this = Obj();
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::Append(Json value) {
  if (!is_array()) *this = Arr();
  array_.push_back(std::move(value));
  return *this;
}

StatusOr<Json> Json::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

void Json::DumpTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      AppendJsonNumber(out, number_);
      break;
    case Type::kString:
      AppendJsonString(out, string_);
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& element : array_) {
        if (!first) out->push_back(',');
        first = false;
        element.DumpTo(out);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out->push_back(',');
        first = false;
        AppendJsonString(out, key);
        out->push_back(':');
        value.DumpTo(out);
      }
      out->push_back('}');
      break;
    }
  }
}

void AppendJsonString(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  size_t run = 0;  // First byte not yet copied to `out`.
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        out->append("\\u00");
        out->push_back(kHex[c >> 4]);
        out->push_back(kHex[c & 0xF]);
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  // Integral values within the double-exact range print without a fraction
  // ("12000", not "12000.0"); everything else prints in shortest
  // round-trip form.
  constexpr double kExactIntLimit = 9007199254740992.0;  // 2^53
  char buf[32];
  const auto result =
      v == std::floor(v) && std::fabs(v) < kExactIntLimit
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<int64_t>(v))
          : std::to_chars(buf, buf + sizeof(buf), v);
  assert(result.ec == std::errc());
  out->append(buf, result.ptr);
}

}  // namespace juggler::net
