#ifndef JUGGLER_COMMON_PARSE_H_
#define JUGGLER_COMMON_PARSE_H_

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

namespace juggler {

/// \brief Checked numeric parsing for untrusted input paths.
///
/// The C library's conversion functions are traps on hostile bytes: `atoi`
/// is undefined on overflow, the `strtol` family reports range errors only
/// through `errno` (easy to forget, easy to race), and `std::stoi` throws.
/// The `juggler_analyze` rule `unchecked-parse` therefore bans all of them in
/// src/net/ and the model-artifact loader; call sites use these helpers,
/// which parse with std::from_chars and report failure through the return
/// value — no errno, no exceptions, no silent saturation.
///
/// All helpers require the *entire* input to be consumed: trailing bytes are
/// a parse failure, so "123abc" never half-succeeds.

/// Parses `text` as an unsigned decimal integer (digits only: no sign, no
/// whitespace, no hex). Returns false on empty input, any non-digit byte, or
/// overflow of uint64_t. Leading zeros are accepted ("007" == 7).
[[nodiscard]] inline bool ParseUnsigned(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
  }
  const auto result = std::from_chars(text.data(), text.data() + text.size(),
                                      *out, /*base=*/10);
  return result.ec == std::errc() && result.ptr == text.data() + text.size();
}

/// ParseUnsigned() into an int: also false when the value exceeds INT32_MAX.
/// For counts and durations given on a command line.
[[nodiscard]] inline bool ParseUnsigned(std::string_view text, int* out) {
  uint64_t value = 0;
  if (!ParseUnsigned(text, &value) || value > INT32_MAX) return false;
  *out = static_cast<int>(value);
  return true;
}

/// Parses `text` as a finite double (JSON-style: optional leading '-',
/// decimal or scientific form; no "inf"/"nan", no leading '+', no hex, no
/// whitespace). Returns false on malformed input and on overflow; underflow
/// (e.g. "1e-999") rounds toward zero and succeeds, matching JavaScript and
/// the previous strtod-based readers. The conversion is std::from_chars
/// (correctly rounded, independent of the C locale's decimal point). Only
/// on a range error does strtod tell overflow from underflow; its result
/// counts only if it read the whole text, so a locale whose decimal point
/// is not '.' makes such a number fail rather than be misread.
[[nodiscard]] inline bool ParseFiniteDouble(std::string_view text,
                                            double* out) {
  std::string_view body = text;
  if (!body.empty() && body.front() == '-') body.remove_prefix(1);
  if (body.empty() || body.front() < '0' || body.front() > '9') return false;
  const char* const end = text.data() + text.size();
  double value = 0.0;
  const auto result = std::from_chars(text.data(), end, value);
  // Trailing bytes (an embedded NUL included) -> malformed.
  if (result.ptr != end) return false;
  if (result.ec == std::errc::result_out_of_range) {
    // from_chars reports overflow and underflow alike and leaves `value`
    // unset. strtod tells them apart: overflow yields +/-HUGE_VAL (reject),
    // underflow a magnitude <= DBL_MIN (keep: it is the nearest
    // representable result). strtod honours the C locale's decimal point,
    // so the text counts only if it reads all of it, as from_chars did.
    const std::string terminated(text);
    char* parsed_end = nullptr;
    errno = 0;
    value = std::strtod(terminated.c_str(), &parsed_end);
    if (parsed_end != terminated.c_str() + terminated.size()) return false;
    if (errno == ERANGE && std::fabs(value) > 1.0) return false;
  } else if (result.ec != std::errc()) {
    return false;
  }
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Converts a wire-derived double to int32_t, truncating toward zero.
/// Returns false for NaN, infinities, and values outside [INT32_MIN,
/// INT32_MAX]. The bounds are exact powers of two, so both comparisons are
/// computed without rounding: every accepted value truncates to an
/// in-range integer, and `static_cast` on a rejected value — which is
/// undefined behavior — can never be reached through this helper.
[[nodiscard]] inline bool DoubleToInt32(double value, int32_t* out) {
  if (!(value >= -2147483648.0 && value < 2147483648.0)) return false;
  *out = static_cast<int32_t>(value);
  return true;
}

/// Converts a wire-derived double to uint64_t, truncating toward zero.
/// Returns false for NaN, infinities, negatives, and values >= 2^64.
[[nodiscard]] inline bool DoubleToUint64(double value, uint64_t* out) {
  if (!(value >= 0.0 && value < 18446744073709551616.0)) return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

}  // namespace juggler

#endif  // JUGGLER_COMMON_PARSE_H_
