#include "net/http.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdint>

#include "common/parse.h"

namespace juggler::net {

namespace {

char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// ASCII case-insensitive equality (header names and tokens are ASCII; no
/// locale may change what matches).
bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return AsciiLower(x) == AsciiLower(y);
         });
}

/// `s` without leading and trailing SP/HTAB.
std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool IsTokenChar(char c) {
  // RFC 7230 token characters (the ones that matter for methods/headers).
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '!' || c == '#' || c == '$' ||
         c == '%' || c == '&' || c == '\'' || c == '*' || c == '+' ||
         c == '-' || c == '.' || c == '^' || c == '_' || c == '`' ||
         c == '|' || c == '~';
}

bool IsValidToken(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), IsTokenChar);
}

/// Content-Length grammar is 1*DIGIT: no sign, no whitespace, no hex.
/// A value that is digits but does not fit uint64_t is distinguished from
/// a malformed one so the caller can answer 413 (too large) vs 400 (junk).
enum class ContentLengthParse { kOk, kMalformed, kOverflow };

ContentLengthParse ParseContentLength(std::string_view value, size_t* out) {
  if (value.empty()) return ContentLengthParse::kMalformed;
  for (const char c : value) {
    if (c < '0' || c > '9') return ContentLengthParse::kMalformed;
  }
  uint64_t parsed = 0;
  if (!ParseUnsigned(value, &parsed)) return ContentLengthParse::kOverflow;
  // uint64_t -> size_t is lossless on every supported (64-bit) target, and
  // ParseUnsigned already rejected values that overflow uint64_t.
  *out = static_cast<size_t>(parsed);  // NOLINT(analyze-narrowing): lossless.
  return ContentLengthParse::kOk;
}

/// At most the first 40 bytes of `s`, for echoing attacker-controlled text
/// into one-line error details without amplifying it.
std::string Snippet(std::string_view s) {
  constexpr size_t kMax = 40;
  return s.size() <= kMax ? std::string(s)
                          : std::string(s.substr(0, kMax)) + "...";
}

/// Chunk-size grammar is 1*HEXDIG (extensions already stripped). 16 digits
/// bound the value to uint64_t without an overflow branch per digit.
bool ParseChunkSize(std::string_view line, uint64_t* out) {
  if (line.empty() || line.size() > 16) return false;
  uint64_t value = 0;
  for (const char c : line) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = value * 16 + static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

template <typename Integer>
void AppendDecimal(std::string* out, Integer value) {
  char digits[24];
  out->append(digits,
              std::to_chars(digits, digits + sizeof(digits), value).ptr);
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& [header_name, value] : headers) {
    if (EqualsIgnoreCase(header_name, name)) return &value;
  }
  return nullptr;
}

std::string HttpRequest::Path() const {
  const size_t query = target.find('?');
  return query == std::string::npos ? target : target.substr(0, query);
}

bool HttpRequest::KeepAlive() const {
  bool keep_alive = version == "HTTP/1.1";
  for (const auto& [name, value] : headers) {
    if (!EqualsIgnoreCase(name, "Connection")) continue;
    std::string_view rest = value;
    for (;;) {
      const size_t comma = rest.find(',');
      const std::string_view token = Trim(rest.substr(0, comma));
      if (EqualsIgnoreCase(token, "close")) return false;
      if (EqualsIgnoreCase(token, "keep-alive")) keep_alive = true;
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
  }
  return keep_alive;
}

HttpResponse HttpResponse::Text(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

HttpResponse HttpResponse::JsonBody(int status, std::string json) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(json);
  return response;
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

void AppendResponse(std::string* out, const HttpResponse& response,
                    bool keep_alive) {
  if (out->empty()) out->reserve(160 + response.body.size());
  out->append("HTTP/1.1 ");
  AppendDecimal(out, response.status);
  out->push_back(' ');
  out->append(StatusReason(response.status));
  out->append("\r\nContent-Type: ").append(response.content_type);
  out->append("\r\nContent-Length: ");
  AppendDecimal(out, response.body.size());
  out->append(keep_alive ? "\r\nConnection: keep-alive\r\n"
                         : "\r\nConnection: close\r\n");
  for (const auto& [name, value] : response.headers) {
    out->append(name).append(": ").append(value).append("\r\n");
  }
  out->append("\r\n");
  out->append(response.body);
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out;
  AppendResponse(&out, response, keep_alive);
  return out;
}

void HttpParser::Append(const char* data, size_t size) {
  if (failed_) return;
  if (read_ > 0) {
    // Drop the requests consumed since the last Append in one move, not
    // one per request.
    buffer_.erase(0, read_);
    scan_ -= read_;
    if (phase_ != Phase::kHead) {
      body_start_ -= read_;
      pos_ -= read_;
    }
    read_ = 0;
  }
  buffer_.append(data, size);
}

HttpParser::Result HttpParser::Fail(int status, std::string detail) {
  failed_ = true;
  failed_status_ = status;
  failed_detail_ = detail;
  buffer_.clear();  // Framing is lost; drop whatever was buffered.
  read_ = 0;
  Result result;
  result.state = State::kError;
  result.error_status = status;
  result.error_detail = std::move(detail);
  return result;
}

HttpParser::Result HttpParser::Next() {
  if (failed_) {
    Result result;
    result.state = State::kError;
    result.error_status = failed_status_;
    result.error_detail = failed_detail_;
    return result;
  }

  if (phase_ == Phase::kHead) {
    // The head may span at most max_header_bytes before its blank line, so
    // the blank line is only looked for there. Once that window is buffered
    // without one the head is certainly too long, however the bytes were
    // split across Append() calls.
    const size_t head_limit = read_ + limits_.max_header_bytes + 4;
    const size_t header_end = Find("\r\n\r\n", read_, head_limit);
    if (header_end == std::string::npos) {
      if (buffer_.size() >= head_limit) {
        return Fail(413, "header section exceeds " +
                             std::to_string(limits_.max_header_bytes) +
                             " bytes");
      }
      return Result{};  // kNeedMore
    }
    if (Result head = ParseHead(header_end); head.state == State::kError) {
      return head;
    }
  }
  if (phase_ == Phase::kBody) {
    if (buffer_.size() - body_start_ < content_length_) {
      return Result{};  // kNeedMore
    }
    request_.body.assign(buffer_, body_start_, content_length_);
    return Complete(body_start_ + content_length_);
  }
  return NextChunked();
}

HttpParser::Result HttpParser::ParseHead(size_t header_end) {
  const std::string_view head(buffer_.data() + read_, header_end - read_);
  HttpRequest& request = request_;

  // --- Request line ---------------------------------------------------------
  const size_t line_end = std::min(head.find("\r\n"), head.size());
  const std::string_view request_line = head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos) {
    return Fail(400, "malformed request line");
  }
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (!IsValidToken(method) || method.size() > 16) {
    return Fail(400, "invalid method token");
  }
  if (target.empty() || target[0] != '/') {
    return Fail(400, "request target must be origin-form (start with '/')");
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return Fail(400, "unsupported HTTP version '" + Snippet(version) + "'");
  }
  request.method.assign(method);
  request.target.assign(target);
  request.version.assign(version);

  // --- Header fields --------------------------------------------------------
  // Every header line ends in a LF, so this bounds the field count.
  request.headers.reserve(static_cast<size_t>(
      std::count(head.begin() + static_cast<std::ptrdiff_t>(line_end),
                 head.end(), '\n')) + 1);
  bool have_content_length = false;
  bool chunked = false;
  size_t content_length = 0;
  size_t pos = line_end + 2;
  while (pos < head.size()) {
    const size_t eol = std::min(head.find("\r\n", pos), head.size());
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    if (line[0] == ' ' || line[0] == '\t') {
      return Fail(400, "obsolete header line folding is not supported");
    }
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Fail(400, "header field without ':'");
    }
    const std::string_view name = line.substr(0, colon);
    const std::string_view value = Trim(line.substr(colon + 1));
    if (!IsValidToken(name)) return Fail(400, "invalid header field name");
    if (EqualsIgnoreCase(name, "Transfer-Encoding")) {
      // "chunked" alone is supported; any other coding (or a coding list)
      // would change the framing in ways we do not implement, so 501 rather
      // than mis-frame. A second TE header is a framing ambiguity: 400.
      if (chunked) return Fail(400, "duplicate Transfer-Encoding header");
      if (!EqualsIgnoreCase(value, "chunked")) {
        return Fail(501, "Transfer-Encoding '" + Snippet(value) +
                             "' is not supported; use 'chunked' or "
                             "Content-Length");
      }
      chunked = true;
    }
    if (EqualsIgnoreCase(name, "Content-Length")) {
      size_t parsed = 0;
      switch (ParseContentLength(value, &parsed)) {
        case ContentLengthParse::kMalformed:
          return Fail(400, "invalid Content-Length '" + Snippet(value) + "'");
        case ContentLengthParse::kOverflow:
          // A declared size beyond uint64_t is "too large", not junk: the
          // client framed a body we will never accept. Reject before any
          // body byte is buffered.
          return Fail(413, "Content-Length '" + Snippet(value) +
                               "' overflows; limit is " +
                               std::to_string(limits_.max_body_bytes));
        case ContentLengthParse::kOk:
          break;
      }
      if (have_content_length && parsed != content_length) {
        return Fail(400, "conflicting Content-Length headers");
      }
      if (parsed > limits_.max_body_bytes) {
        // Checked here — not after the header loop — so the 413 (and the
        // connection close that follows) happens before the flood of body
        // bytes is ever waited for or buffered.
        return Fail(413, "body of " + std::to_string(parsed) +
                             " bytes exceeds limit of " +
                             std::to_string(limits_.max_body_bytes));
      }
      have_content_length = true;
      content_length = parsed;
    }
    request.headers.emplace_back(name, value);
  }

  // --- Body framing ---------------------------------------------------------
  body_start_ = pos_ = scan_ = header_end + 4;
  if (chunked) {
    if (have_content_length) {
      // RFC 7230 §3.3.3: the classic request-smuggling vector. Reject rather
      // than pick a winner.
      return Fail(400,
                  "both Transfer-Encoding and Content-Length present");
    }
    phase_ = Phase::kChunkSize;
  } else {
    phase_ = Phase::kBody;
    content_length_ = content_length;
  }
  return Result{};
}

size_t HttpParser::Find(std::string_view pattern, size_t from, size_t limit) {
  const size_t end = std::min(buffer_.size(), limit);
  const size_t found =
      std::string_view(buffer_.data(), end).find(pattern, scan_);
  if (found == std::string_view::npos) {
    // A match completed by later bytes starts in the last size - 1 bytes.
    scan_ = std::max(from, end - std::min(end, pattern.size() - 1));
  }
  return found;
}

HttpParser::Result HttpParser::Complete(size_t end) {
  Result result;
  result.state = State::kReady;
  result.request = std::move(request_);
  request_ = HttpRequest();
  read_ = scan_ = end;
  phase_ = Phase::kHead;
  return result;
}

HttpParser::Result HttpParser::NextChunked() {
  // Cap on the *encoded* stream, kept strictly below the server's read-pause
  // flood guard (max_header + max_body + 4096 buffered bytes): a client
  // dribbling 1-byte chunks must hit this 413 before the server ever stops
  // reading, or the connection would deadlock waiting for bytes that are
  // already refused. The overhead allowance also bounds size lines and
  // trailers, so no separate per-line limit can be gamed. Every line and
  // chunk must end within the cap, so the verdict does not depend on how
  // the bytes were split across Append() calls.
  const size_t max_encoded = limits_.max_body_bytes + 2048;
  const size_t limit = body_start_ + max_encoded;
  const auto need_more = [&]() -> Result {
    if (buffer_.size() >= limit) {
      return Fail(413, "chunked body exceeds encoded limit of " +
                           std::to_string(max_encoded) + " bytes");
    }
    return Result{};  // kNeedMore
  };

  // Chunk data: <hex-size>[;ext]CRLF <bytes> CRLF ... 0CRLF, then trailer
  // lines we discard, ended by an empty line. Each step advances `pos_`, so
  // a later Next() resumes at the step that ran out of bytes.
  for (;;) {
    switch (phase_) {
      case Phase::kChunkSize: {
        const size_t eol = Find("\r\n", pos_, limit);
        if (eol == std::string::npos) return need_more();
        std::string_view size_line(buffer_.data() + pos_, eol - pos_);
        // Chunk extensions (";name=value") carry nothing we honor: strip and
        // discard. The spec allows BWS around ';' in practice; trim it.
        size_line = Trim(size_line.substr(0, size_line.find(';')));
        uint64_t chunk_size = 0;
        if (!ParseChunkSize(size_line, &chunk_size)) {
          return Fail(400, "invalid chunk size '" + Snippet(size_line) + "'");
        }
        if (chunk_size > limits_.max_body_bytes ||
            request_.body.size() + chunk_size > limits_.max_body_bytes) {
          // Checked from the size line alone, before the chunk's bytes are
          // waited for (same policy as the Content-Length 413).
          return Fail(413, "chunked body exceeds limit of " +
                               std::to_string(limits_.max_body_bytes) +
                               " bytes");
        }
        pos_ = scan_ = eol + 2;
        chunk_size_ = chunk_size;
        phase_ = chunk_size == 0 ? Phase::kTrailer : Phase::kChunkData;
        break;
      }
      case Phase::kChunkData: {
        // Below max_body_bytes (checked above), so the cast is lossless.
        const auto size = static_cast<size_t>(chunk_size_);
        if (pos_ + size + 2 > limit) {
          // The chunk cannot end within the encoded cap: 413 from the size
          // line alone, like the decoded-size check.
          return Fail(413, "chunked body exceeds encoded limit of " +
                               std::to_string(max_encoded) + " bytes");
        }
        if (buffer_.size() - pos_ < size + 2) return need_more();
        request_.body.append(buffer_, pos_, size);
        if (buffer_[pos_ + size] != '\r' ||
            buffer_[pos_ + size + 1] != '\n') {
          return Fail(400, "chunk data not terminated by CRLF");
        }
        pos_ = scan_ = pos_ + size + 2;
        phase_ = Phase::kChunkSize;
        break;
      }
      case Phase::kTrailer: {
        const size_t eol = Find("\r\n", pos_, limit);
        if (eol == std::string::npos) return need_more();
        if (eol == pos_) return Complete(eol + 2);  // End of the request.
        const std::string_view line(buffer_.data() + pos_, eol - pos_);
        const size_t colon = line.find(':');
        if (colon == std::string_view::npos ||
            !IsValidToken(line.substr(0, colon))) {
          return Fail(400, "malformed trailer field");
        }
        pos_ = scan_ = eol + 2;
        break;
      }
      case Phase::kHead:
      case Phase::kBody:
        assert(false && "NextChunked outside a chunked body");
        return Result{};
    }
  }
}

}  // namespace juggler::net
