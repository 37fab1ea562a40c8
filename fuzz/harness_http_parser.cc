#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/harnesses.h"
#include "net/http.h"

namespace juggler::fuzz {

namespace {

/// Everything the parser reported for one way of splitting the input.
struct Transcript {
  std::vector<std::string> requests;  ///< Canonical form of each request.
  int error_status = 0;               ///< 0 when no error was reported.
  std::string error_detail;
  size_t buffered = 0;  ///< Unconsumed bytes at the end.

  friend bool operator==(const Transcript&, const Transcript&) = default;
};

/// Length-prefixed fields, so no two distinct requests share a form.
std::string Canonical(const net::HttpRequest& request) {
  std::string out;
  const auto field = [&out](const std::string& value) {
    out += std::to_string(value.size());
    out.push_back(':');
    out += value;
  };
  field(request.method);
  field(request.target);
  field(request.version);
  for (const auto& [name, value] : request.headers) {
    field(name);
    field(value);
  }
  field(request.body);
  return out;
}

/// Whether `c` equals the lower-case ASCII byte `lower`, ignoring case.
bool MatchesLower(char c, char lower) {
  return c == lower || (lower >= 'a' && lower <= 'z' && c == lower - 32);
}

/// Index in `text` just past the first occurrence of `lower` (matched
/// ASCII case-insensitively) at or after `from`, or npos.
size_t FindIgnoreCase(std::string_view text, std::string_view lower,
                      size_t from) {
  for (size_t i = from; i + lower.size() <= text.size(); ++i) {
    size_t k = 0;
    while (k < lower.size() && MatchesLower(text[i + k], lower[k])) ++k;
    if (k == lower.size()) return i + k;
  }
  return std::string_view::npos;
}

/// Offset just past `chunked` in the first `Transfer-Encoding` header line
/// of `text` that names it (ASCII case-insensitively), or npos if there is
/// none. Only once that much is fed can a parser hold a pending chunked
/// body; before it, and for inputs with no such line, the tighter bound
/// applies.
size_t ChunkedDeclaredAt(std::string_view text) {
  size_t pos = 0;
  while ((pos = FindIgnoreCase(text, "\r\ntransfer-encoding:", pos)) !=
         std::string_view::npos) {
    const size_t eol = std::min(text.find("\r\n", pos), text.size());
    const size_t named = FindIgnoreCase(text.substr(0, eol), "chunked", pos);
    if (named != std::string_view::npos) return named;
  }
  return std::string_view::npos;
}

/// Feeds `bytes` in pieces of `chunk` bytes, draining every ready request
/// before feeding more (as the event loop does), and checks the per-step
/// invariants.
Transcript Parse(const net::HttpParser::Limits& limits, const char* bytes,
                 size_t size, size_t chunk) {
  net::HttpParser parser(limits);
  const size_t chunked_at = ChunkedDeclaredAt(std::string_view(bytes, size));
  size_t fed = 0;
  Transcript transcript;
  bool poisoned = false;
  size_t remaining = size;
  while (true) {
    // Drain everything that is ready before feeding more, like the event
    // loop does: pipelined requests come out one at a time.
    while (true) {
      const net::HttpParser::Result result = parser.Next();
      if (result.state == net::HttpParser::State::kReady) {
        const net::HttpRequest& request = result.request;
        (void)request.Path();
        (void)request.FindHeader("Content-Length");
        net::HttpResponse response =
            net::HttpResponse::Text(200, request.method);
        const std::string wire =
            net::SerializeResponse(response, request.KeepAlive());
        JUGGLER_FUZZ_CHECK(wire.rfind("HTTP/1.1 ", 0) == 0,
                           "responses start with a status line");
        transcript.requests.push_back(Canonical(request));
        continue;
      }
      if (result.state == net::HttpParser::State::kError) {
        JUGGLER_FUZZ_CHECK(result.error_status == 400 ||
                               result.error_status == 413 ||
                               result.error_status == 501,
                           "parser errors map to 400/413/501");
        JUGGLER_FUZZ_CHECK(!result.error_detail.empty(),
                           "parser errors carry a reason");
        JUGGLER_FUZZ_CHECK(!poisoned ||
                               (result.error_status ==
                                    transcript.error_status &&
                                result.error_detail == transcript.error_detail),
                           "a poisoned parser repeats its error");
        transcript.error_status = result.error_status;
        transcript.error_detail = result.error_detail;
        poisoned = true;
      }
      break;
    }
    // A parser that is not mid-error never buffers more than one partial
    // request (a head, then a body of at most max_body_bytes); a poisoned
    // one must hold nothing at all (the connection is about to close —
    // buffering the rest of a hostile stream would be unbounded memory).
    // Only a declared chunked body may also use its 2 KiB encoding
    // allowance (the encoded cap is max_body_bytes + 2048).
    if (poisoned) {
      JUGGLER_FUZZ_CHECK(parser.buffered_bytes() == 0,
                         "poisoned parser drops its buffer");
    } else {
      const size_t encoding_allowance = fed >= chunked_at ? 2048 : 0;
      JUGGLER_FUZZ_CHECK(
          parser.buffered_bytes() <= limits.max_header_bytes + 4 +
                                         limits.max_body_bytes +
                                         encoding_allowance,
          "drained parser stays within its configured limits");
    }
    if (remaining == 0) break;
    const size_t n = std::min(chunk, remaining);
    parser.Append(bytes, n);
    bytes += n;
    fed += n;
    remaining -= n;
  }
  transcript.buffered = parser.buffered_bytes();
  return transcript;
}

}  // namespace

int RunHttpParser(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  // Small limits keep each input cheap while still exercising both the
  // header and body caps; the committed corpus includes inputs on both
  // sides of each edge.
  net::HttpParser::Limits limits;
  limits.max_header_bytes = 2048;
  limits.max_body_bytes = 4096;

  const size_t chunk = data[0] == 0 ? size : (data[0] % 97) + 1;
  const char* bytes = reinterpret_cast<const char*>(data) + 1;
  const Transcript split = Parse(limits, bytes, size - 1, chunk);
  // The incremental parser's oracle: how the bytes were split across
  // Append() calls never changes which requests come out, or the error.
  const Transcript whole = Parse(limits, bytes, size - 1, size);
  JUGGLER_FUZZ_CHECK(split == whole,
                     "split and whole feeds parse to the same requests and "
                     "error");
  return 0;
}

}  // namespace juggler::fuzz
