#include "common/status.h"

namespace juggler {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kAborted:
      return "ABORTED";
  }
  return "UNKNOWN";
}

StatusCode CodeFromName(std::string_view name) {
  for (int c = static_cast<int>(StatusCode::kOk);
       c <= static_cast<int>(StatusCode::kAborted); ++c) {
    const auto code = static_cast<StatusCode>(c);
    if (name == CodeName(code)) return code;
  }
  return StatusCode::kInternal;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace juggler
