#ifndef JUGGLER_COMMON_STATUS_H_
#define JUGGLER_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace juggler {

/// \brief Error codes used across the library.
///
/// Modelled on the RocksDB/Arrow convention: library entry points that can
/// fail return a `Status` (or `StatusOr<T>`) instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
  /// An operation gave up after exhausting its retry budget (e.g. a
  /// simulated task that failed `max_task_attempts` times). Distinct from
  /// kInternal so callers can tell "the run was aborted by injected faults"
  /// from "the library is broken".
  kAborted,
};

/// Canonical name of a status code ("INVALID_ARGUMENT", ...): the code
/// Status::ToString() prints and the one the HTTP and JRPC error documents
/// carry.
const char* CodeName(StatusCode code);

/// Inverse of CodeName(); kInternal for anything unrecognized (an unknown
/// code crossing the wire must still fail closed).
StatusCode CodeFromName(std::string_view name);

/// \brief A cheap, copyable success-or-error result.
///
/// `[[nodiscard]]`: every function that returns a `Status` (or `StatusOr`)
/// reports failure through it and nothing else, so silently dropping the
/// return value swallows the error. Discarding is a compile error under the
/// repo's default `-Werror` baseline; the few legitimate discards (e.g. a
/// best-effort refresh whose failure is acceptable) must be explicit and
/// commented: `status.IgnoreError();  // why it is safe`.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" form for logs and test failures.
  [[nodiscard]] std::string ToString() const;

  /// Documents a deliberate discard. Write the reason next to the call:
  /// `registry.Refresh().IgnoreError();  // best-effort; stale is fine`.
  void IgnoreError() const {}

 private:
  StatusCode code_;
  std::string message_;
};

/// \brief Holds either a value of type T or an error Status.
///
/// Accessing the value of a non-OK result is a programming error (asserts in
/// debug builds; undefined in release), mirroring absl::StatusOr semantics.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit construction from a value or from an error Status keeps call
  /// sites terse (`return value;` / `return Status::NotFound(...);`).
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "StatusOr constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace juggler

/// Propagates a non-OK status to the caller. Usable in functions returning
/// Status.
#define JUGGLER_RETURN_IF_ERROR(expr)        \
  do {                                       \
    ::juggler::Status _st = (expr);          \
    if (!_st.ok()) return _st;               \
  } while (false)

#endif  // JUGGLER_COMMON_STATUS_H_
