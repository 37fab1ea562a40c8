#ifndef JUGGLER_RPC_RPC_SERVER_H_
#define JUGGLER_RPC_RPC_SERVER_H_

#include <functional>
#include <optional>

#include "net/event_loop_server.h"
#include "rpc/frame.h"

namespace juggler::rpc {

/// \brief Non-blocking JRPC server: a net::EventLoopServer speaking binary
/// frames instead of HTTP, with the same deadlines, flood guard and stats.
///
/// Protocol behavior:
///  - kPing is answered inline on the loop thread (health probes must not
///    queue behind model evaluations);
///  - the optional FastHandler may answer any other frame inline on the
///    loop thread (the shard's resident-model recommends and its
///    observation ingest, payloads up to net::kInlineBodyBytes);
///  - every other frame runs the Handler on the pool. Either way the reply
///    is sent with the request's id stamped in;
///  - a full dispatch queue answers kError RESOURCE_EXHAUSTED immediately —
///    bounded queues shed at the edge, never park unboundedly. The payload
///    keeps the HTTP API's error JSON shape so the router can map it back
///    to a Status (503 + Retry-After at the HTTP edge);
///  - a framing error sends one kError INVALID_ARGUMENT frame and closes;
///    a client stalling mid-frame gets one kError ABORTED frame (the code
///    RpcChannel reports for a missed call deadline) and a close. Both carry
///    request id 0: the stream no longer identifies a request.
///
/// Every kError payload is net::ErrorJson's document, so messages are
/// JSON-escaped and codes are StatusCode names.
class RpcServer : public net::EventLoopServer {
 public:
  struct Options : net::EventLoopServer::Options {
    FrameDecoder::Limits limits;
  };

  /// Runs on a handler-pool thread; may block (e.g. on a model evaluation).
  /// The returned frame's request_id is overwritten with the request's.
  using Handler = std::function<RpcFrame(const RpcFrame&)>;

  /// Optional fast path, run on the event-loop thread before dispatching:
  /// return a reply frame to answer inline (its request_id is overwritten),
  /// or nullopt to fall through to the pool. Every connection waits while
  /// it runs, so the same rule as HttpServer::FastHandler holds: no disk or
  /// network I/O, no waiting on other threads.
  using FastHandler = std::function<std::optional<RpcFrame>(const RpcFrame&)>;

  RpcServer(const Options& options, Handler handler,
            FastHandler fast_handler = nullptr);
};

}  // namespace juggler::rpc

#endif  // JUGGLER_RPC_RPC_SERVER_H_
