#ifndef JUGGLER_NET_JSON_H_
#define JUGGLER_NET_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace juggler::net {

/// \brief Minimal hand-rolled JSON value for the HTTP control plane.
///
/// The serving wire format (§5.5 over HTTP) needs exactly: parse a request
/// body, build a response body. This is a small recursive-descent reader and
/// a writer over one fat value type — no allocator tricks, no SAX, no
/// third-party dependency, which keeps the net subsystem self-contained and
/// the parser fully auditable.
///
/// Deliberate limits (all hit the error path, never UB):
///  - objects preserve insertion order and allow duplicate keys on input
///    (`Find` returns the first), matching how the writer emits them;
///  - numbers are IEEE doubles (like JavaScript); integers beyond 2^53 lose
///    precision — fine for this API, whose integral fields are tiny;
///  - input nesting is capped at kMaxDepth to bound recursion;
///  - `\uXXXX` escapes are decoded to UTF-8 (surrogate pairs supported).
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  /// Maximum nesting depth Parse() accepts.
  static constexpr int kMaxDepth = 64;

  Json() = default;  ///< null

  static Json Null() { return Json(); }
  static Json Bool(bool value);
  static Json Number(double value);
  static Json Str(std::string value);
  static Json Arr();
  static Json Obj();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors return the value for matching types and a zero-ish
  /// default otherwise (false / 0.0 / empty), so lookups compose without
  /// branching on every level; use type()/is_*() where the distinction
  /// matters.
  bool bool_value() const { return is_bool() ? bool_ : false; }
  double number_value() const { return is_number() ? number_ : 0.0; }
  const std::string& string_value() const;
  const Array& array_items() const;
  const Object& object_items() const;

  /// First value under `key` if this is an object, else nullptr.
  const Json* Find(std::string_view key) const;

  /// Object member lookups with defaults (missing key or wrong type falls
  /// back to `fallback`).
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key, std::string fallback) const;

  /// Object/array builders; chainable. Calling Set on a non-object (or
  /// Append on a non-array) first converts this value, discarding it.
  Json& Set(std::string key, Json value);
  Json& Append(Json value);

  /// Parses `text` (one JSON document, trailing whitespace allowed, anything
  /// else after it is InvalidArgument). Numbers convert straight from the
  /// text with ParseFiniteDouble (std::from_chars; see there for the
  /// strtod fallback on a range error).
  [[nodiscard]] static StatusOr<Json> Parse(std::string_view text);

  /// Compact serialization (no added whitespace). Parse(Dump()) round-trips
  /// the value; strings and numbers are written by AppendJsonString and
  /// AppendJsonNumber.
  std::string Dump() const;

 private:
  class Parser;  // json.cc: fills values in place.

  void DumpTo(std::string* out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Appends `s` as a quoted JSON string: `"` and `\` escaped, the control
/// bytes as \b \f \n \r \t or \u00xx, every other byte (UTF-8 included)
/// verbatim. The one escaping routine behind Json::Dump and the direct
/// writers (net::ResponseJson).
void AppendJsonString(std::string* out, std::string_view s);

/// Appends `v` as a JSON number: integral values below 2^53 in magnitude
/// without an exponent or fraction ("12000"), every other finite value in
/// shortest round-trip form (std::to_chars), and NaN/infinity as `null`
/// (JSON has no spelling for them).
void AppendJsonNumber(std::string* out, double v);

}  // namespace juggler::net

#endif  // JUGGLER_NET_JSON_H_
