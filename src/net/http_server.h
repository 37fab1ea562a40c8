#ifndef JUGGLER_NET_HTTP_SERVER_H_
#define JUGGLER_NET_HTTP_SERVER_H_

#include <functional>
#include <optional>

#include "net/event_loop_server.h"
#include "net/http.h"

namespace juggler::net {

/// \brief Non-blocking HTTP/1.1 front end: an EventLoopServer speaking HTTP.
///
/// A complete request is answered inline by the optional `FastHandler`
/// (health checks, cache hits, resident-model evaluations), taken by the
/// optional `DeferHandler` and answered later on the loop thread (the
/// router's forwards), or run through the `Handler` on the handler pool; the
/// response is serialized with the request's keep-alive choice.
///
/// Backpressure contract (the RecommendationService policy, preserved at the
/// socket edge): when the handler pool's bounded queue is full the server
/// responds 503 with Retry-After immediately — it never parks a request in
/// an unbounded queue, never hangs the client, and never drops the
/// connection without a response. A handler that returns a 503 itself
/// (ResourceExhausted from downstream) is passed through the same way.
/// Malformed requests get 400/413/501 and a close; a client stalling
/// mid-request gets 408 and a close.
class HttpServer : public EventLoopServer {
 public:
  struct Options : EventLoopServer::Options {
    HttpParser::Limits limits;
  };

  /// Runs on a handler-pool thread; may block (e.g. on a model evaluation).
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Optional fast path, run on the event-loop thread before dispatching.
  /// Return a response to answer inline, or nullopt to fall through to the
  /// pool. Every connection waits while it runs, so it must not block: no
  /// disk or network I/O, no waiting on other threads — only CPU work of a
  /// few microseconds (trivial GETs, cache hits, resident-model
  /// evaluations).
  using FastHandler =
      std::function<std::optional<HttpResponse>(const HttpRequest&)>;

  /// Sends the response to one deferred request: on the loop thread, once.
  class Reply {
   public:
    Reply(EventLoopServer::Deferred deferred, bool keep_alive)
        : deferred_(deferred), keep_alive_(keep_alive) {}
    void operator()(const HttpResponse& response) const {
      deferred_.Reply(SerializeResponse(response, keep_alive_));
    }

   private:
    EventLoopServer::Deferred deferred_;
    bool keep_alive_;
  };

  /// Optional loop-thread handler for what the FastHandler declined. Return
  /// true to take the request: `reply` must then be called exactly once, on
  /// the loop thread — right away, or later from the `agent`'s I/O. Return
  /// false to fall through to the pool. Same no-blocking rule as the
  /// FastHandler.
  using DeferHandler = std::function<bool(const HttpRequest&, const Reply&)>;

  /// `agent` (optional, not owned) drives the I/O that completes deferred
  /// requests; see EventLoopServer::LoopAgent.
  HttpServer(const Options& options, Handler handler,
             FastHandler fast_handler = nullptr,
             DeferHandler defer_handler = nullptr,
             LoopAgent* agent = nullptr);
};

}  // namespace juggler::net

#endif  // JUGGLER_NET_HTTP_SERVER_H_
