#ifndef JUGGLER_NET_HTTP_RECOMMEND_SERVER_H_
#define JUGGLER_NET_HTTP_RECOMMEND_SERVER_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/recommend_codec.h"
#include "online/online_loop.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"

namespace juggler::net {

/// \brief The §5.5 online path over HTTP: routes RecommendationService +
/// ModelRegistry behind a small JSON API and a Prometheus metrics endpoint.
///
/// Endpoints:
///   POST /v1/recommend   one question, or {"requests":[...]} for a batch
///   POST /v1/observe     feed live observations to the online refit loop
///                        (binary wire batch, or a JSON array of records;
///                        503 when the server runs without --online)
///   GET  /v1/apps        registered application names + registry version
///   POST /v1/reload      hot-reload the model directory (incremental)
///   GET  /livez          liveness probe: 200 whenever the process serves
///   GET  /readyz         readiness probe: 503 + Retry-After while the
///                        registry is mid-refresh/mid-publish or the server
///                        is draining for shutdown
///   GET  /healthz        alias for readiness (existing probes keep working)
///   GET  /metrics        Prometheus text format (per-app request/cache/
///                        latency series + cache/registry/http globals)
///
/// Wire format (single request):
///   {"app": "svm",
///    "params": {"examples": 40000, "features": 80000, "iterations": 1},
///    "machine": {"machine_gb": 12}}          // optional; paper node default
///
/// Backpressure: the HttpServer answers 503 with Retry-After when its
/// dispatch queue is full (the ResourceExhausted contract, verbatim at the
/// edge). Any ResourceExhausted a handler returns maps to the same 503.
///
/// Fast path: a request whose body is at most kInlineBodyBytes is answered
/// on the event-loop thread when its work is resident — the probes, every
/// /v1/recommend single or batch whose models are all in memory (through
/// RecommendationService::RecommendIfResident() and
/// RecommendBatchIfResident(): cache hits, or cold keys evaluated inline at
/// a few microseconds each), and /v1/observe ingest. Only larger bodies,
/// the admin routes and lazy models that must be loaded from disk take the
/// handler pool; the loop never parses an artifact.
class HttpRecommendServer {
 public:
  struct Options {
    HttpServer::Options http;
    /// The process's online feedback loop; null serves /v1/observe as 503
    /// FailedPrecondition ("online adaptation disabled").
    std::shared_ptr<online::OnlineJuggler> online;
  };

  HttpRecommendServer(std::shared_ptr<service::ModelRegistry> registry,
                      std::shared_ptr<service::RecommendationService> service,
                      const Options& options);

  HttpRecommendServer(const HttpRecommendServer&) = delete;
  HttpRecommendServer& operator=(const HttpRecommendServer&) = delete;

  [[nodiscard]] Status Start();
  void Stop();

  /// Marks the server draining: /readyz (and /healthz) flip to 503 so load
  /// balancers stop routing here, while in-flight requests still complete.
  /// Stop() sets this automatically; tests and the soak harness set it
  /// directly to model a shard that is up but not accepting work.
  void SetDraining(bool draining) {
    draining_.store(draining, std::memory_order_relaxed);
  }

  /// Readiness as served by /readyz: not draining and no registry refresh
  /// or online publish currently being absorbed.
  bool Ready() const {
    return !draining_.load(std::memory_order_relaxed) &&
           registry_->refreshes_in_progress() == 0;
  }

  uint16_t port() const { return server_.port(); }
  const std::string& backend() const { return server_.backend(); }
  HttpServer::Stats http_stats() const { return server_.GetStats(); }

  /// Full routing of one request (handler-pool path). Public so tests can
  /// exercise routes without a socket.
  HttpResponse Handle(const HttpRequest& request);

  /// Event-loop fast path: answers the probes, resident recommends (singles
  /// and batches) and observation ingest inline; nullopt (a body over
  /// kInlineBodyBytes, other routes, a lazy model not yet loaded) falls
  /// through to Handle() on the pool.
  std::optional<HttpResponse> HandleFast(const HttpRequest& request);

  /// The Prometheus exposition text served at /metrics.
  std::string MetricsText() const;

 private:
  /// The recommend answer path of both HandleFast (`resident_only`:
  /// nullopt when any model it needs is not in memory) and Handle.
  std::optional<HttpResponse> HandleRecommend(const HttpRequest& request,
                                              bool resident_only);
  HttpResponse HandleObserve(const HttpRequest& request);
  HttpResponse ReadinessResponse() const;

  std::shared_ptr<service::ModelRegistry> registry_;
  std::shared_ptr<service::RecommendationService> service_;
  std::shared_ptr<online::OnlineJuggler> online_;
  std::atomic<bool> draining_{false};
  HttpServer server_;
};

}  // namespace juggler::net

#endif  // JUGGLER_NET_HTTP_RECOMMEND_SERVER_H_
