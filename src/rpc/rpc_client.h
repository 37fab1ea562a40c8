#ifndef JUGGLER_RPC_RPC_CLIENT_H_
#define JUGGLER_RPC_RPC_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "rpc/frame.h"

namespace juggler::rpc {

/// \brief Synchronous JRPC client: one connection, one request in flight.
///
/// It serves the router's blocking routes — bodies over the inline cap,
/// apps, reload, and the public Router::Forward calls — from a small pool
/// per shard (checkout/checkin), and its prober, one kept client per shard;
/// a single client never needs internal locking — it is NOT thread-safe.
/// Recommends and observations forwarded from the router's event loop use
/// the non-blocking, pipelined RpcChannel instead.
///
/// Failure model: any transport problem (dial failure, deadline, peer close,
/// protocol error) closes the connection and surfaces as a non-OK Status —
/// the caller treats that as "shard unreachable" and reroutes. Timeouts are
/// kAborted; everything else kInternal. Application-level errors arrive as
/// an OK transport result carrying a kError frame, which is returned to the
/// caller untouched (no reroute: the shard is healthy, the request is not).
class RpcClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    int connect_timeout_ms = 1'000;
    /// Budget for one Call(): send + wait + receive. Must cover a cold model
    /// evaluation on the shard.
    int call_timeout_ms = 5'000;
    FrameDecoder::Limits limits;
  };

  explicit RpcClient(const Options& options) : options_(options) {}
  ~RpcClient() { Close(); }

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Dials if not already connected. Idempotent; Call() invokes it lazily.
  [[nodiscard]] Status Connect();

  /// Sends one frame and blocks for its response (request ids are matched;
  /// a mismatch is a protocol error that closes the connection).
  [[nodiscard]] StatusOr<RpcFrame> Call(FrameType type, std::string payload);

  /// Health probe: kPing must come back kPong within the connect timeout
  /// (probes must be fast even when calls are allowed to be slow).
  [[nodiscard]] Status Ping();

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  [[nodiscard]] StatusOr<RpcFrame> CallWithTimeout(FrameType type,
                                                   std::string payload,
                                                   int timeout_ms);

  /// Writes all of `bytes` before `deadline_ms` elapses from now.
  [[nodiscard]] Status SendAll(const std::string& bytes, int deadline_ms);

  const Options options_;
  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  FrameDecoder decoder_{FrameDecoder::Limits{}};
};

}  // namespace juggler::rpc

#endif  // JUGGLER_RPC_RPC_CLIENT_H_
