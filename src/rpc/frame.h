#ifndef JUGGLER_RPC_FRAME_H_
#define JUGGLER_RPC_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace juggler::rpc {

/// \brief The shard tier's length-prefixed binary wire format.
///
/// Every message is one frame (all multi-byte integers big-endian):
///
///   offset  size  field
///        0     4  magic "JRPC"
///        4     1  protocol version (currently 1)
///        5     1  frame type (FrameType; unknown values are rejected)
///        6     2  reserved, must be zero
///        8     8  request id (echoed verbatim in the response frame)
///       16     4  payload length in bytes
///       20     n  payload (opaque to the framing layer; the cluster tier
///                 puts the same JSON documents the HTTP API uses in here)
///
/// The decoder is incremental (feed TCP segments as they arrive) and
/// poisons itself on the first malformed header: framing is unrecoverable
/// mid-stream, so the connection must close — exactly the HttpParser
/// contract the event loop already implements.
enum class FrameType : uint8_t {
  kPing = 1,            ///< Health probe; answered inline with kPong.
  kPong = 2,            ///< Ping response; payload echoed.
  kRecommend = 3,       ///< Payload: single-recommend request JSON.
  kRecommendReply = 4,  ///< Payload: recommend response JSON.
  kApps = 5,            ///< Payload empty.
  kAppsReply = 6,       ///< Payload: {"version":v,"apps":[...]}.
  kReload = 7,          ///< Payload empty; shard re-scans its model dir.
  kReloadReply = 8,     ///< Payload: registry reload summary JSON.
  kError = 9,           ///< Payload: {"error":{"code":...,"message":...}}.
  kObserve = 10,        ///< Payload: observation batch (online wire format).
  kObserveReply = 11,   ///< Payload: {"accepted":n,"buffered":n}.
};

/// True when `value` is one of the FrameType enumerators above.
bool IsKnownFrameType(uint8_t value);

struct RpcFrame {
  FrameType type = FrameType::kPing;
  uint64_t request_id = 0;
  std::string payload;
};

inline constexpr size_t kFrameHeaderBytes = 20;
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr char kFrameMagic[4] = {'J', 'R', 'P', 'C'};

/// Serializes one frame (header + payload).
std::string EncodeFrame(const RpcFrame& frame);

/// Appends the serialized frame to `out` (the event loop's write buffer).
void AppendFrame(const RpcFrame& frame, std::string* out);
void AppendFrame(FrameType type, uint64_t request_id, std::string_view payload,
                 std::string* out);

/// \brief Incremental frame decoder for one connection.
///
/// Feed bytes with Append(); pull complete frames with Next(). Bounds are
/// checked before any byte of a payload is buffered past the limit: a header
/// that declares an oversized payload fails immediately, so a hostile peer
/// cannot make the decoder buffer the flood it announces.
class FrameDecoder {
 public:
  struct Limits {
    /// Largest accepted payload. Recommend requests/responses are a few KiB;
    /// the default leaves generous headroom for batched metadata.
    size_t max_payload_bytes = 1 << 20;
  };

  enum class State {
    kNeedMore,  ///< Incomplete frame buffered; feed more bytes.
    kReady,     ///< `frame` is complete.
    kError,     ///< Protocol error; close the connection.
  };

  struct Result {
    State state = State::kNeedMore;
    RpcFrame frame;            ///< Valid when state == kReady.
    std::string error_detail;  ///< One-line reason when state == kError.
  };

  FrameDecoder() : FrameDecoder(Limits()) {}
  explicit FrameDecoder(const Limits& limits) : limits_(limits) {}

  /// Buffers incoming bytes; drops everything once poisoned (the connection
  /// is about to close — buffering a hostile stream would be unbounded).
  /// Frames Next() consumed since the last call leave the buffer here, in
  /// one move, so decoding a pipelined burst is linear in its size.
  void Append(const char* data, size_t size);

  /// Extracts the next complete frame, if any. After kError the decoder is
  /// poisoned: every further Next() reports the same error.
  Result Next();

  size_t buffered_bytes() const { return buffer_.size() - read_; }
  bool failed() const { return failed_; }

 private:
  Result Fail(std::string detail);

  Limits limits_;
  std::string buffer_;
  size_t read_ = 0;  ///< Bytes of `buffer_` already returned as frames.
  bool failed_ = false;
  std::string failed_detail_;
};

}  // namespace juggler::rpc

#endif  // JUGGLER_RPC_FRAME_H_
