#include "net/http_recommend_server.h"

#include <utility>
#include <vector>

#include "net/json.h"
#include "net/prometheus.h"
#include "net/recommend_codec.h"
#include "online/observation.h"
#include "online/online_metrics.h"

namespace juggler::net {

HttpRecommendServer::HttpRecommendServer(
    std::shared_ptr<service::ModelRegistry> registry,
    std::shared_ptr<service::RecommendationService> service,
    const Options& options)
    : registry_(std::move(registry)),
      service_(std::move(service)),
      online_(options.online),
      server_(
          options.http,
          [this](const HttpRequest& request) { return Handle(request); },
          [this](const HttpRequest& request) { return HandleFast(request); }) {
}

Status HttpRecommendServer::Start() { return server_.Start(); }

void HttpRecommendServer::Stop() {
  SetDraining(true);
  server_.Stop();
}

HttpResponse HttpRecommendServer::ReadinessResponse() const {
  if (Ready()) return HttpResponse::Text(200, "ok\n");
  const bool draining = draining_.load(std::memory_order_relaxed);
  HttpResponse response = HttpResponse::Text(
      503, draining ? "draining\n" : "registry refresh in progress\n");
  response.headers.emplace_back("Retry-After", "1");
  return response;
}

std::optional<HttpResponse> HttpRecommendServer::HandleFast(
    const HttpRequest& request) {
  // The one inline rule, before any parse: a large body goes to the pool
  // whatever it holds.
  if (request.body.size() > kInlineBodyBytes) return std::nullopt;
  const std::string path = request.Path();
  if (path == "/livez" && request.method == "GET") {
    return HttpResponse::Text(200, "ok\n");
  }
  if ((path == "/healthz" || path == "/readyz") && request.method == "GET") {
    return ReadinessResponse();
  }
  if (request.method != "POST") return std::nullopt;
  // Resident recommends, singles and batches, are answered right here on
  // the event-loop thread: cache hits, and evaluations of a few
  // microseconds each. A slot whose lazy model needs loading from disk
  // sends the whole request to the handler pool.
  if (path == "/v1/recommend") {
    return HandleRecommend(request, /*resident_only=*/true);
  }
  if (path == "/v1/observe") return HandleObserve(request);
  return std::nullopt;
}

HttpResponse HttpRecommendServer::Handle(const HttpRequest& request) {
  const std::string path = request.Path();
  if (path == "/livez") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    return HttpResponse::Text(200, "ok\n");
  }
  if (path == "/healthz" || path == "/readyz") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    return ReadinessResponse();
  }
  if (path == "/v1/recommend") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    return *HandleRecommend(request, /*resident_only=*/false);
  }
  if (path == "/v1/observe") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    return HandleObserve(request);
  }
  if (path == "/v1/apps") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    return HttpResponse::JsonBody(200, AppsJson(*registry_));
  }
  if (path == "/v1/reload") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    if (Status status = registry_->Refresh(); !status.ok()) {
      return ErrorResponse(status);
    }
    return HttpResponse::JsonBody(200, ReloadJson(*registry_));
  }
  if (path == "/metrics") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    HttpResponse response = HttpResponse::Text(200, MetricsText());
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return response;
  }
  return ErrorResponse(Status::NotFound("no route for " + path));
}

std::optional<HttpResponse> HttpRecommendServer::HandleRecommend(
    const HttpRequest& request, bool resident_only) {
  auto json = Json::Parse(request.body);
  if (!json.ok()) return ErrorResponse(json.status());

  const Json* batch =
      json->is_object() ? json->Find("requests") : nullptr;
  if (batch == nullptr) {
    auto answer = AnswerRecommend(*service_, *json, resident_only);
    if (!answer.has_value()) return std::nullopt;  // Needs a lazy load.
    if (!answer->ok()) return ErrorResponse(answer->status());
    return HttpResponse::JsonBody(200, std::move(**answer).Dump());
  }

  // Batch: every element must be well-formed (a malformed element is a
  // client bug and fails the whole request with 400); service-level errors
  // (unknown app, shed load) come back per slot.
  if (!batch->is_array()) {
    return ErrorResponse(
        Status::InvalidArgument("'requests' must be an array"));
  }
  std::vector<service::RecommendRequest> requests;
  requests.reserve(batch->array_items().size());
  for (size_t i = 0; i < batch->array_items().size(); ++i) {
    auto parsed = ParseRecommendRequest(batch->array_items()[i]);
    if (!parsed.ok()) {
      return ErrorResponse(
          Status::InvalidArgument("requests[" + std::to_string(i) +
                                  "]: " + parsed.status().message()));
    }
    requests.push_back(std::move(parsed).value());
  }
  std::vector<StatusOr<service::RecommendResponse>> responses;
  if (resident_only) {
    auto resident = service_->RecommendBatchIfResident(requests);
    if (!resident.has_value()) return std::nullopt;  // Needs a lazy load.
    responses = *std::move(resident);
  } else {
    responses = service_->RecommendBatch(requests);
  }
  std::string body = "{\"results\":[";
  for (size_t i = 0; i < responses.size(); ++i) {
    if (i > 0) body.push_back(',');
    body.append(responses[i].ok()
                    ? ResponseJson(requests[i].app, *responses[i]).Dump()
                    : ErrorJson(responses[i].status()).Dump());
  }
  body.append("]}");
  return HttpResponse::JsonBody(200, std::move(body));
}

HttpResponse HttpRecommendServer::HandleObserve(const HttpRequest& request) {
  if (online_ == nullptr) {
    return ErrorResponse(Status::FailedPrecondition(
        "online adaptation disabled; start the server with --online"));
  }
  if (request.body.empty()) {
    return ErrorResponse(Status::InvalidArgument("empty observation body"));
  }
  // Binary batches carry the wire magic; everything else is parsed as the
  // JSON form and re-encoded, so both paths cross the same binary decoder.
  if (online::IsObservationBatch(request.body)) {
    if (Status added = online_->ObserveEncoded(request.body); !added.ok()) {
      return ErrorResponse(added);
    }
  } else {
    auto json = Json::Parse(request.body);
    if (!json.ok()) return ErrorResponse(json.status());
    auto observations = ParseObservationsJson(*json);
    if (!observations.ok()) return ErrorResponse(observations.status());
    const std::string encoded = online::EncodeObservationBatch(*observations);
    if (Status added = online_->ObserveEncoded(encoded); !added.ok()) {
      return ErrorResponse(added);
    }
  }
  const online::FeedbackCollector::Stats stats =
      online_->collector().GetStats();
  Json out = Json::Obj();
  out.Set("ingested", Json::Number(static_cast<double>(stats.ingested)))
      .Set("dropped", Json::Number(static_cast<double>(stats.dropped)))
      .Set("buffered", Json::Number(static_cast<double>(stats.buffered)));
  return HttpResponse::JsonBody(200, out.Dump());
}

std::string HttpRecommendServer::MetricsText() const {
  const service::RecommendationService::Stats stats = service_->GetStats();
  const HttpServer::Stats http = server_.GetStats();
  std::string out;
  out.reserve(4096);

  AppendHeader(&out, "juggler_requests_total", "counter",
               "Recommendation requests answered, by application.");
  for (const auto& [app, s] : stats.per_app) {
    AppendSample(&out, "juggler_requests_total", app, "",
                 static_cast<double>(s.requests));
  }
  AppendHeader(&out, "juggler_cache_hits_total", "counter",
               "Requests answered from the prediction cache, by application.");
  for (const auto& [app, s] : stats.per_app) {
    AppendSample(&out, "juggler_cache_hits_total", app, "",
                 static_cast<double>(s.cache_hits));
  }
  AppendHeader(&out, "juggler_cache_misses_total", "counter",
               "Requests that required a model evaluation, by application.");
  for (const auto& [app, s] : stats.per_app) {
    AppendSample(&out, "juggler_cache_misses_total", app, "",
                 static_cast<double>(s.cache_misses));
  }
  AppendHeader(&out, "juggler_evaluations_total", "counter",
               "Model evaluations run, by application.");
  for (const auto& [app, s] : stats.per_app) {
    AppendSample(&out, "juggler_evaluations_total", app, "",
                 static_cast<double>(s.evaluations));
  }
  AppendHeader(&out, "juggler_request_latency_us", "summary",
               "Time inside the recommendation service (model resolve, "
               "cache probe and any evaluation) in microseconds, by "
               "application; excludes HTTP parsing, JSON codecs and socket "
               "I/O.");
  for (const auto& [app, s] : stats.per_app) {
    AppendSample(&out, "juggler_request_latency_us", app, "quantile=\"0.5\"",
                 s.latency.p50_us);
    AppendSample(&out, "juggler_request_latency_us", app, "quantile=\"0.95\"",
                 s.latency.p95_us);
    AppendSample(&out, "juggler_request_latency_us_sum", app, "",
                 s.latency.sum_us);
    AppendSample(&out, "juggler_request_latency_us_count", app, "",
                 static_cast<double>(s.latency.count));
  }

  AppendHeader(&out, "juggler_requests_rejected_total", "counter",
               "Async warm-up requests shed because the warm-up queue, the "
               "service's only queue, was full (edge sheds count in "
               "juggler_http_overload_rejected_total).");
  AppendSample(&out, "juggler_requests_rejected_total", "", "",
               static_cast<double>(stats.rejected));
  AppendHeader(&out, "juggler_requests_deadline_shed_total", "counter",
               "Async warm-up requests shed because they overstayed the "
               "deadline of the warm-up queue, the service's only queue.");
  AppendSample(&out, "juggler_requests_deadline_shed_total", "", "",
               static_cast<double>(stats.deadline_shed));

  AppendHeader(&out, "juggler_prediction_cache_hits_total", "counter",
               "Prediction cache hits (all applications).");
  AppendSample(&out, "juggler_prediction_cache_hits_total", "", "",
               static_cast<double>(stats.cache.hits));
  AppendHeader(&out, "juggler_prediction_cache_misses_total", "counter",
               "Prediction cache misses (all applications).");
  AppendSample(&out, "juggler_prediction_cache_misses_total", "", "",
               static_cast<double>(stats.cache.misses));
  AppendHeader(&out, "juggler_prediction_cache_evictions_total", "counter",
               "Prediction cache LRU evictions.");
  AppendSample(&out, "juggler_prediction_cache_evictions_total", "", "",
               static_cast<double>(stats.cache.evictions));
  AppendHeader(&out, "juggler_prediction_cache_size", "gauge",
               "Entries currently resident in the prediction cache.");
  AppendSample(&out, "juggler_prediction_cache_size", "", "",
               static_cast<double>(stats.cache.size));

  AppendHeader(&out, "juggler_registry_version", "gauge",
               "Model registry snapshot version.");
  AppendSample(&out, "juggler_registry_version", "", "",
               static_cast<double>(registry_->version()));
  AppendHeader(&out, "juggler_registry_models", "gauge",
               "Models registered for serving.");
  AppendSample(&out, "juggler_registry_models", "", "",
               static_cast<double>(registry_->size()));
  AppendHeader(&out, "juggler_registry_loaded_models", "gauge",
               "Model artifacts currently resident in memory (equals "
               "juggler_registry_models unless lazy loading is on).");
  AppendSample(&out, "juggler_registry_loaded_models", "", "",
               static_cast<double>(registry_->loaded_models()));
  AppendHeader(&out, "juggler_registry_evictions_total", "counter",
               "Models evicted from memory by the LRU/TTL policy.");
  AppendSample(&out, "juggler_registry_evictions_total", "", "",
               static_cast<double>(registry_->evictions()));
  AppendHeader(&out, "juggler_model_refresh_errors_total", "counter",
               "Artifacts that failed to load during a registry refresh, by "
               "application (last-good model kept serving).");
  for (const auto& [app, count] : registry_->refresh_errors()) {
    AppendSample(&out, "juggler_model_refresh_errors_total", app, "",
                 static_cast<double>(count));
  }

  AppendHttpMetrics(&out, http,
                    "HTTP requests answered inline on the event loop: probes, "
                    "recommend singles and batches whose models are "
                    "resident, and observation ingest (bodies up to 4 KiB).");

  AppendHeader(&out, "juggler_ready", "gauge",
               "Readiness as served by /readyz: 1 when accepting work, 0 "
               "while draining or absorbing a registry refresh.");
  AppendSample(&out, "juggler_ready", "", "", Ready() ? 1.0 : 0.0);
  AppendHeader(&out, "juggler_draining", "gauge",
               "1 while the server is draining for shutdown.");
  AppendSample(&out, "juggler_draining", "", "",
               draining_.load(std::memory_order_relaxed) ? 1.0 : 0.0);
  AppendHeader(&out, "juggler_registry_refreshes_in_progress", "gauge",
               "Registry refreshes (reloads or online publishes) currently "
               "being absorbed.");
  AppendSample(&out, "juggler_registry_refreshes_in_progress", "", "",
               static_cast<double>(registry_->refreshes_in_progress()));

  online::AppendOnlineMetrics(&out);
  AppendLockMetrics(&out);
  return out;
}

}  // namespace juggler::net
