#ifndef JUGGLER_NET_HTTP_H_
#define JUGGLER_NET_HTTP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace juggler::net {

/// \brief One parsed HTTP/1.x request.
struct HttpRequest {
  std::string method;   ///< Uppercase token, e.g. "GET".
  std::string target;   ///< Request target as sent, e.g. "/v1/recommend?x=1".
  std::string version;  ///< "HTTP/1.0" or "HTTP/1.1".
  /// Headers in wire order; names as sent (matching is case-insensitive).
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header value whose name equals `name` case-insensitively
  /// (ASCII), or nullptr.
  const std::string* FindHeader(std::string_view name) const;

  /// Request target without the query string ("/v1/apps?x=1" -> "/v1/apps").
  std::string Path() const;

  /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close. Connection is a
  /// comma-separated token list (RFC 7230 §6.1, across every Connection
  /// header): a "close" token anywhere closes, else a "keep-alive" token
  /// keeps the connection open; tokens match case-insensitively.
  bool KeepAlive() const;
};

/// \brief An HTTP response under construction; serialized by
/// AppendResponse().
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  /// Extra headers (e.g. Retry-After, Allow). Content-Length, Content-Type
  /// and Connection are emitted by the serializer — do not add them here.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  static HttpResponse Text(int status, std::string body);
  static HttpResponse JsonBody(int status, std::string json);
};

/// Reason phrase for the status codes this server emits ("Unknown" for the
/// rest — still a valid response line).
const char* StatusReason(int status);

/// Appends `response` to `out` as an HTTP/1.1 response with an explicit
/// Content-Length and a Connection header matching `keep_alive`.
void AppendResponse(std::string* out, const HttpResponse& response,
                    bool keep_alive);

/// AppendResponse() into a new string.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

/// \brief Incremental HTTP/1.1 request parser for one connection.
///
/// Feed bytes as they arrive with Append(); pull complete requests with
/// Next(). The parser owns the connection's input buffer, so pipelined
/// requests (several requests in one TCP segment) simply queue up: each
/// Next() consumes exactly one.
///
/// Scope — what a minimal-but-correct origin server needs, and nothing more:
///  - request line + headers, strict CRLF line endings;
///  - bodies via Content-Length or Transfer-Encoding: chunked (decoded with
///    bounded size lines, bounded trailers, and a cap on the encoded stream
///    so a trickle of 1-byte chunks cannot park below the flood guard); any
///    other Transfer-Encoding is rejected with 501 rather than mis-framed,
///    and TE + Content-Length together is a 400 (request smuggling vector);
///  - size limits: header section and body are each capped, oversize input
///    yields 413 without buffering the flood; each cap bounds a window of
///    the stream (the head's blank line and every chunk line and chunk must
///    end inside it), so the verdict never depends on how the bytes were
///    split across Append() calls;
///  - malformed input yields 400 with a one-line reason; the connection
///    should then be closed (framing is unrecoverable after a parse error).
///
/// Work is linear in the bytes fed, however they are split: the head is
/// parsed once (as string_views into the buffer, each owned string built
/// once), a pending body's framing and the chunk decoder's position survive
/// across Next() calls, every scan for a line end resumes where the last
/// one stopped, and consumed requests advance a read offset that Append()
/// compacts away once.
class HttpParser {
 public:
  struct Limits {
    size_t max_header_bytes = 64 * 1024;
    size_t max_body_bytes = 1 << 20;
  };

  enum class State {
    kNeedMore,  ///< Incomplete request buffered; feed more bytes.
    kReady,     ///< `request` is complete.
    kError,     ///< Protocol error; respond with `error_status` and close.
  };

  struct Result {
    State state = State::kNeedMore;
    HttpRequest request;       ///< Valid when state == kReady.
    int error_status = 0;      ///< 400/413/501 when state == kError.
    std::string error_detail;  ///< One-line human-readable reason.
  };

  explicit HttpParser(const Limits& limits) : limits_(limits) {}

  /// Buffers incoming bytes. After a protocol error the parser is poisoned
  /// and Append() drops everything: the connection must close, so buffering
  /// the rest of a hostile stream would be unbounded memory growth for
  /// bytes nobody will ever parse.
  void Append(const char* data, size_t size);

  /// Extracts the next complete request from the buffer, if any. After
  /// kError the parser is poisoned: framing is lost, every further Next()
  /// reports the same error.
  Result Next();

  /// Bytes received and not yet consumed by a complete request.
  size_t buffered_bytes() const { return buffer_.size() - read_; }

 private:
  /// Where the request at `read_` stands. Positions below are offsets into
  /// `buffer_`.
  enum class Phase {
    kHead,       ///< Waiting for the blank line that ends the head.
    kBody,       ///< Head parsed; waiting for `content_length_` bytes.
    kChunkSize,  ///< Chunked: the size line at `pos_`.
    kChunkData,  ///< Chunked: `chunk_size_` data bytes + CRLF at `pos_`.
    kTrailer,    ///< Chunked: the trailer line at `pos_`.
  };

  Result Fail(int status, std::string detail);
  /// Parses the head [read_, header_end) into `request_` and sets the body
  /// phase: kError on malformed input, else kNeedMore (the body is next).
  Result ParseHead(size_t header_end);
  /// Decodes a Transfer-Encoding: chunked body from `pos_` on, through the
  /// trailer section.
  Result NextChunked();
  /// Hands out `request_`, consuming the buffer through `end`.
  Result Complete(size_t end);
  /// Offset of the first `pattern` at or after `from` that ends by `limit`,
  /// resuming where the previous search of the same line stopped; npos if
  /// none is buffered yet.
  size_t Find(std::string_view pattern, size_t from, size_t limit);

  Limits limits_;
  std::string buffer_;
  size_t read_ = 0;  ///< Start of the unconsumed bytes.
  size_t scan_ = 0;  ///< Where the pending CRLF / blank-line search resumes.
  Phase phase_ = Phase::kHead;
  HttpRequest request_;  ///< The request being parsed (head done past kHead).
  size_t body_start_ = 0;
  size_t content_length_ = 0;
  size_t pos_ = 0;         ///< Chunked: start of the current line or data.
  uint64_t chunk_size_ = 0;
  bool failed_ = false;
  int failed_status_ = 0;
  std::string failed_detail_;
};

}  // namespace juggler::net

#endif  // JUGGLER_NET_HTTP_H_
