#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <utility>

#include "cluster/loop_forwarder.h"
#include "common/parse.h"
#include "common/thread_name.h"
#include "net/json.h"
#include "online/observation.h"
#include "online/online_metrics.h"
#include "net/prometheus.h"
#include "net/recommend_codec.h"
#include "service/prediction_cache.h"

namespace juggler::cluster {

namespace {

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

rpc::FrameType ReplyTypeFor(rpc::FrameType request) {
  switch (request) {
    case rpc::FrameType::kRecommend:
      return rpc::FrameType::kRecommendReply;
    case rpc::FrameType::kApps:
      return rpc::FrameType::kAppsReply;
    case rpc::FrameType::kReload:
      return rpc::FrameType::kReloadReply;
    case rpc::FrameType::kObserve:
      return rpc::FrameType::kObserveReply;
    default:
      return rpc::FrameType::kPong;
  }
}

/// The route key of a single-recommend document: the prediction-cache key
/// with version 0 — the router does not know shard model versions, and
/// stability across reloads is exactly what keeps routing sticky.
StatusOr<std::string> SingleRouteKey(const net::Json& json) {
  auto parsed = net::ParseRecommendRequest(json);
  if (!parsed.ok()) return parsed.status();
  return service::PredictionCache::MakeKey(parsed->app, 0, parsed->params,
                                           parsed->machine_type);
}

}  // namespace

StatusOr<std::unique_ptr<Router>> Router::Create(const Options& options) {
  if (options.shards.empty()) {
    return Status::InvalidArgument("router needs at least one shard address");
  }
  auto router = std::make_unique<Router>(options);
  for (const std::string& address : options.shards) {
    const size_t colon = address.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == address.size()) {
      return Status::InvalidArgument("shard address must be host:port, got '" +
                                     address + "'");
    }
    uint64_t port = 0;
    if (!ParseUnsigned(address.substr(colon + 1), &port) || port == 0 ||
        port > 65535) {
      return Status::InvalidArgument("invalid port in shard address '" +
                                     address + "'");
    }
    auto shard = std::make_unique<Shard>();
    shard->address = address;
    shard->host = address.substr(0, colon);
    shard->port = static_cast<uint16_t>(port);
    router->shards_.push_back(std::move(shard));
  }
  return router;
}

Router::Shard::Shard()
    : pool_mu(lockdiag::RegisterLockClass("cluster.Router.shard_pool",
                                          lockdiag::kRankCluster)) {}

Router::Router(const Options& options)
    : options_(options),
      ring_(options.shards.size(),
            options.virtual_nodes == 0 ? 1 : options.virtual_nodes) {}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (started_.exchange(true)) return Status::OK();
  stop_.store(false);
  prober_ = std::thread([this] {
    SetCurrentThreadName("jg-prober");
    ProbeLoop();
  });
  return Status::OK();
}

void Router::Stop() {
  if (!started_.load()) return;
  stop_.store(true);
  if (prober_.joinable()) prober_.join();
  started_.store(false);
  for (auto& shard : shards_) {
    // Swap the pool out and let the RpcClient destructors run close() after
    // the lock is released: destroying connections is a syscall, and holding
    // pool_mu across it would stall a concurrent checkout (and trip the
    // blocking-under-lock discipline this file advertises).
    std::vector<std::unique_ptr<rpc::RpcClient>> drained;
    {
      MutexLock lock(shard->pool_mu);
      drained.swap(shard->pool);
    }
  }
}

// ---- Walk: the forwarding policy -------------------------------------------

Router::Walk::Walk(Router* router, std::vector<size_t> order,
                   rpc::FrameType type)
    : router_(router),
      order_(std::move(order)),
      type_(type),
      expected_reply_(ReplyTypeFor(type)) {}

std::optional<size_t> Router::Walk::Next() {
  // Pass 0 tries the healthy shards in order; pass 1 is the last resort when
  // the prober has the rest marked down (its view may be a probe interval
  // stale — a shard that just came back deserves the request rather than
  // the client an error).
  for (; pass_ < 2; ++pass_, position_ = 0) {
    while (position_ < order_.size()) {
      const size_t index = order_[position_++];
      const bool healthy =
          router_->shards_[index]->healthy.load(std::memory_order_relaxed);
      if ((pass_ == 0) != healthy ||
          std::find(tried_.begin(), tried_.end(), index) != tried_.end()) {
        continue;
      }
      if (!tried_.empty()) {
        router_->reroutes_.fetch_add(1, std::memory_order_relaxed);
      }
      tried_.push_back(index);
      return index;
    }
  }
  return std::nullopt;
}

std::optional<StatusOr<std::string>> Router::Walk::Finish(
    size_t index, StatusOr<rpc::RpcFrame> reply,
    std::chrono::steady_clock::time_point start) {
  router_->RecordAttempt(index, reply.ok(), start);
  if (!reply.ok()) {
    last_ = reply.status();
    return std::nullopt;  // Reroute: next shard in the order.
  }
  if (reply->type == rpc::FrameType::kError) {
    return StatusOr<std::string>(net::StatusFromErrorJson(reply->payload));
  }
  if (reply->type != expected_reply_) {
    last_ = Status::Internal("unexpected reply frame type " +
                             std::to_string(static_cast<int>(reply->type)));
    return std::nullopt;
  }
  return StatusOr<std::string>(std::move(reply->payload));
}

Status Router::Walk::Exhausted() const {
  return Status::ResourceExhausted("all shards failed: " + last_.message());
}

Router::Walk Router::KeyWalk(const std::string& route_key,
                             rpc::FrameType type) {
  const size_t attempts =
      options_.max_attempts == 0 ? 1 : options_.max_attempts;
  return Walk(this, ring_.Preference(route_key, attempts), type);
}

void Router::RecordAttempt(size_t index, bool transport_ok,
                           std::chrono::steady_clock::time_point start) {
  Shard& shard = *shards_[index];
  shard.requests.fetch_add(1, std::memory_order_relaxed);
  if (!transport_ok) {
    // The connection is gone and the shard is suspect; the prober flips
    // `healthy` back once pings succeed again.
    shard.errors.fetch_add(1, std::memory_order_relaxed);
    shard.healthy.store(false, std::memory_order_relaxed);
    return;
  }
  shard.latency.Record(ElapsedUs(start));
  shard.healthy.store(true, std::memory_order_relaxed);
}

// ---- The blocking transport ------------------------------------------------

rpc::RpcClient::Options Router::ClientOptions(size_t index,
                                              int call_timeout_ms) const {
  rpc::RpcClient::Options options;
  options.host = shards_[index]->host;
  options.port = shards_[index]->port;
  options.connect_timeout_ms = options_.connect_timeout_ms;
  options.call_timeout_ms = call_timeout_ms;
  options.limits = options_.limits;
  return options;
}

StatusOr<rpc::RpcFrame> Router::CallShard(size_t index, rpc::FrameType type,
                                          const std::string& payload) {
  Shard& shard = *shards_[index];
  std::unique_ptr<rpc::RpcClient> client;
  {
    MutexLock lock(shard.pool_mu);
    if (!shard.pool.empty()) {
      client = std::move(shard.pool.back());
      shard.pool.pop_back();
    }
  }
  if (client == nullptr) {
    client = std::make_unique<rpc::RpcClient>(
        ClientOptions(index, options_.rpc_timeout_ms));
  }
  auto reply = client->Call(type, payload);
  // A transport failure closed the connection: drop the client.
  if (!reply.ok()) return reply.status();
  MutexLock lock(shard.pool_mu);
  if (shard.pool.size() < options_.max_clients_per_shard) {
    shard.pool.push_back(std::move(client));
  }
  return reply;
}

StatusOr<std::string> Router::RunWalk(Walk walk, const std::string& payload) {
  while (const std::optional<size_t> index = walk.Next()) {
    const auto start = std::chrono::steady_clock::now();
    std::optional<StatusOr<std::string>> result =
        walk.Finish(*index, CallShard(*index, walk.type(), payload), start);
    if (result.has_value()) return *std::move(result);
  }
  return walk.Exhausted();
}

StatusOr<std::string> Router::Forward(rpc::FrameType type,
                                      const std::string& route_key,
                                      const std::string& payload) {
  return RunWalk(KeyWalk(route_key, type), payload);
}

StatusOr<std::string> Router::CallAny(rpc::FrameType type,
                                      const std::string& payload) {
  std::vector<size_t> order(shards_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  return RunWalk(Walk(this, std::move(order), type), payload);
}

std::vector<Router::BroadcastResult> Router::Broadcast(
    rpc::FrameType type, const std::string& payload) {
  std::vector<BroadcastResult> results;
  results.reserve(shards_.size());
  for (size_t index = 0; index < shards_.size(); ++index) {
    const auto start = std::chrono::steady_clock::now();
    auto reply = CallShard(index, type, payload);
    RecordAttempt(index, reply.ok(), start);
    StatusOr<std::string> outcome =
        !reply.ok() ? StatusOr<std::string>(reply.status())
        : reply->type == rpc::FrameType::kError
            ? StatusOr<std::string>(net::StatusFromErrorJson(reply->payload))
            : StatusOr<std::string>(std::move(reply->payload));
    results.push_back(
        BroadcastResult{shards_[index]->address, std::move(outcome)});
  }
  return results;
}

std::vector<Router::ShardStats> Router::GetShardStats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    s.address = shard->address;
    s.healthy = shard->healthy.load(std::memory_order_relaxed);
    s.requests = shard->requests.load(std::memory_order_relaxed);
    s.errors = shard->errors.load(std::memory_order_relaxed);
    s.latency = shard->latency.GetSnapshot();
    stats.push_back(std::move(s));
  }
  return stats;
}

size_t Router::healthy_shards() const {
  size_t healthy = 0;
  for (const auto& shard : shards_) {
    if (shard->healthy.load(std::memory_order_relaxed)) ++healthy;
  }
  return healthy;
}

void Router::ProbeLoop() {
  // One kept connection per shard; a probe redials only after a transport
  // failure closed it. Probes borrow the connect timeout: a shard that
  // cannot answer a ping quickly counts as down.
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  for (size_t index = 0; index < shards_.size(); ++index) {
    clients.push_back(std::make_unique<rpc::RpcClient>(
        ClientOptions(index, options_.connect_timeout_ms)));
  }
  while (!stop_.load(std::memory_order_relaxed)) {
    for (size_t index = 0; index < shards_.size(); ++index) {
      if (stop_.load(std::memory_order_relaxed)) return;
      shards_[index]->healthy.store(clients[index]->Ping().ok(),
                                    std::memory_order_relaxed);
      probes_.fetch_add(1, std::memory_order_relaxed);
    }
    // Sleep in small slices so Stop() is never blocked a full interval.
    int remaining = options_.probe_interval_ms;
    while (remaining > 0 && !stop_.load(std::memory_order_relaxed)) {
      const int slice = remaining < 20 ? remaining : 20;
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      remaining -= slice;
    }
  }
}

// ---- ForwardPlan: planning and joining, shared by both transports ----------

StatusOr<ForwardPlan> PlanRecommend(const std::string& body) {
  // The router validates before forwarding: a 400 must not cost a network
  // hop, and the parse yields the fields the route key hashes over.
  auto json = net::Json::Parse(body);
  if (!json.ok()) return json.status();
  ForwardPlan plan;
  const net::Json* batch =
      json->is_object() ? json->Find("requests") : nullptr;
  if (batch == nullptr) {
    auto route_key = SingleRouteKey(*json);
    if (!route_key.ok()) return route_key.status();
    plan.legs.push_back({std::move(route_key).value(), body});
    return plan;
  }
  if (!batch->is_array()) {
    return Status::InvalidArgument("'requests' must be an array");
  }
  // Validate every slot up front (same all-or-nothing 400 contract as the
  // standalone server), then route each to its own shard.
  plan.join = ForwardPlan::Join::kResults;
  plan.legs.reserve(batch->array_items().size());
  for (size_t i = 0; i < batch->array_items().size(); ++i) {
    const net::Json& slot = batch->array_items()[i];
    auto route_key = SingleRouteKey(slot);
    if (!route_key.ok()) {
      return Status::InvalidArgument("requests[" + std::to_string(i) +
                                     "]: " + route_key.status().message());
    }
    plan.legs.push_back({std::move(route_key).value(), slot.Dump()});
  }
  return plan;
}

StatusOr<ForwardPlan> PlanObserve(const std::string& body) {
  if (body.empty()) return Status::InvalidArgument("empty observation body");
  // Accept both wire forms the standalone server does, then decode so the
  // batch can be re-grouped: one app's observations must all reach the one
  // shard that serves (and can refit) that app.
  StatusOr<std::vector<online::Observation>> observations =
      Status::InvalidArgument("unparsed");
  if (online::IsObservationBatch(body)) {
    observations = online::DecodeObservationBatch(body);
  } else {
    auto json = net::Json::Parse(body);
    if (!json.ok()) return json.status();
    observations = net::ParseObservationsJson(*json);
  }
  if (!observations.ok()) return observations.status();

  std::map<std::string, std::vector<online::Observation>> by_app;
  for (online::Observation& o : *observations) {
    by_app[o.app].push_back(std::move(o));
  }
  ForwardPlan plan;
  plan.type = rpc::FrameType::kObserve;
  plan.join = ForwardPlan::Join::kShards;
  plan.legs.reserve(by_app.size());
  for (const auto& [app, group] : by_app) {
    plan.legs.push_back({app, online::EncodeObservationBatch(group)});
  }
  return plan;
}

net::HttpResponse JoinReplies(const ForwardPlan& plan,
                              std::vector<StatusOr<std::string>> replies) {
  if (plan.join == ForwardPlan::Join::kSingle) {
    if (!replies[0].ok()) return net::ErrorResponse(replies[0].status());
    return net::HttpResponse::JsonBody(200, std::move(replies[0]).value());
  }
  // Replies are raw JSON documents; splice them rather than reparse.
  const bool results = plan.join == ForwardPlan::Join::kResults;
  std::string body = results ? "{\"results\":[" : "{\"shards\":[";
  for (size_t i = 0; i < replies.size(); ++i) {
    if (i > 0) body.push_back(',');
    if (!results) {
      body.append("{\"app\":");
      net::AppendJsonString(&body, plan.legs[i].route_key);
      body.append(replies[i].ok() ? ",\"reply\":" : ",\"error\":");
    }
    body.append(replies[i].ok() ? *replies[i]
                                : net::ErrorJson(replies[i].status()).Dump());
    if (!results) body.push_back('}');
  }
  body.append("]}");
  return net::HttpResponse::JsonBody(200, std::move(body));
}

// ---- RouterHttpServer ------------------------------------------------------

RouterHttpServer::RouterHttpServer(Router* router, const Options& options)
    : router_(router),
      forwarder_(std::make_unique<LoopForwarder>(router)),
      server_(
          options.http,
          [this](const net::HttpRequest& request) { return Handle(request); },
          [this](const net::HttpRequest& request) {
            return HandleFast(request);
          },
          [this](const net::HttpRequest& request,
                 const net::HttpServer::Reply& reply) {
            return ForwardOnLoop(request, reply);
          },
          forwarder_.get()) {}

RouterHttpServer::~RouterHttpServer() = default;

std::optional<net::HttpResponse> RouterHttpServer::HandleFast(
    const net::HttpRequest& request) {
  if (request.method != "GET") return std::nullopt;
  const std::string path = request.Path();
  if (path == "/livez") return net::HttpResponse::Text(200, "ok\n");
  if (path == "/healthz" || path == "/readyz") {
    return router_->healthy_shards() > 0
               ? net::HttpResponse::Text(200, "ok\n")
               : net::ErrorResponse(
                     Status::FailedPrecondition("no healthy shards"));
  }
  return std::nullopt;
}

bool RouterHttpServer::ForwardOnLoop(const net::HttpRequest& request,
                                     const net::HttpServer::Reply& reply) {
  // The one inline rule, before any parse: a large body goes to the pool
  // whatever it holds.
  if (request.method != "POST" ||
      request.body.size() > net::kInlineBodyBytes) {
    return false;
  }
  const std::string path = request.Path();
  if (path != "/v1/recommend" && path != "/v1/observe") return false;
  StatusOr<ForwardPlan> plan = path == "/v1/recommend"
                                   ? PlanRecommend(request.body)
                                   : PlanObserve(request.body);
  if (!plan.ok()) {
    reply(net::ErrorResponse(plan.status()));
    return true;
  }
  forwarder_->Forward(std::move(plan).value(), reply);
  return true;
}

net::HttpResponse RouterHttpServer::Handle(const net::HttpRequest& request) {
  const std::string path = request.Path();
  if (path == "/livez") {
    if (request.method != "GET") return net::MethodNotAllowed("GET");
    return net::HttpResponse::Text(200, "ok\n");
  }
  if (path == "/healthz" || path == "/readyz") {
    if (request.method != "GET") return net::MethodNotAllowed("GET");
    return router_->healthy_shards() > 0
               ? net::HttpResponse::Text(200, "ok\n")
               : net::ErrorResponse(
                     Status::FailedPrecondition("no healthy shards"));
  }
  if (path == "/v1/recommend") {
    if (request.method != "POST") return net::MethodNotAllowed("POST");
    return RunPlan(PlanRecommend(request.body));
  }
  if (path == "/v1/observe") {
    if (request.method != "POST") return net::MethodNotAllowed("POST");
    return RunPlan(PlanObserve(request.body));
  }
  if (path == "/v1/apps") {
    if (request.method != "GET") return net::MethodNotAllowed("GET");
    return HandleApps();
  }
  if (path == "/v1/reload") {
    if (request.method != "POST") return net::MethodNotAllowed("POST");
    return HandleReload();
  }
  if (path == "/metrics") {
    if (request.method != "GET") return net::MethodNotAllowed("GET");
    net::HttpResponse response = net::HttpResponse::Text(200, MetricsText());
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return response;
  }
  return net::ErrorResponse(
      Status::NotFound("no route for " + request.method + " " + path));
}

net::HttpResponse RouterHttpServer::RunPlan(StatusOr<ForwardPlan> plan) {
  if (!plan.ok()) return net::ErrorResponse(plan.status());
  std::vector<StatusOr<std::string>> replies;
  replies.reserve(plan->legs.size());
  for (const ForwardPlan::Leg& leg : plan->legs) {
    replies.push_back(router_->Forward(plan->type, leg.route_key, leg.payload));
  }
  return JoinReplies(*plan, std::move(replies));
}

net::HttpResponse RouterHttpServer::HandleApps() {
  auto reply = router_->CallAny(rpc::FrameType::kApps, "");
  if (!reply.ok()) return net::ErrorResponse(reply.status());
  return net::HttpResponse::JsonBody(200, std::move(reply).value());
}

net::HttpResponse RouterHttpServer::HandleReload() {
  const auto results = router_->Broadcast(rpc::FrameType::kReload, "");
  std::string body = "{\"shards\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) body.push_back(',');
    body.append("{\"shard\":\"");
    body.append(results[i].address);  // host:port — no JSON escapes needed.
    body.append("\",");
    if (results[i].reply.ok()) {
      body.append("\"reply\":").append(*results[i].reply);
    } else {
      body.append("\"error\":")
          .append(net::ErrorJson(results[i].reply.status()).Dump());
    }
    body.push_back('}');
  }
  body.append("]}");
  return net::HttpResponse::JsonBody(200, std::move(body));
}

std::string RouterHttpServer::MetricsText() const {
  const std::vector<Router::ShardStats> shards = router_->GetShardStats();
  const net::HttpServer::Stats http = server_.GetStats();
  std::string out;
  out.reserve(4096);

  net::AppendHeader(&out, "juggler_router_shard_healthy", "gauge",
                    "1 while the shard answers pings, 0 while it is down.");
  for (const auto& s : shards) {
    net::AppendLabeledSample(&out, "juggler_router_shard_healthy", "shard",
                             s.address, "", s.healthy ? 1.0 : 0.0);
  }
  net::AppendHeader(&out, "juggler_router_requests_total", "counter",
                    "RPC calls sent, by shard.");
  for (const auto& s : shards) {
    net::AppendLabeledSample(&out, "juggler_router_requests_total", "shard",
                             s.address, "", static_cast<double>(s.requests));
  }
  net::AppendHeader(&out, "juggler_router_errors_total", "counter",
                    "Transport-level RPC failures, by shard.");
  for (const auto& s : shards) {
    net::AppendLabeledSample(&out, "juggler_router_errors_total", "shard",
                             s.address, "", static_cast<double>(s.errors));
  }
  net::AppendHeader(&out, "juggler_router_shard_latency_us", "summary",
                    "Per-call RPC latency in microseconds, by shard.");
  for (const auto& s : shards) {
    net::AppendLabeledSample(&out, "juggler_router_shard_latency_us", "shard",
                             s.address, "quantile=\"0.5\"", s.latency.p50_us);
    net::AppendLabeledSample(&out, "juggler_router_shard_latency_us", "shard",
                             s.address, "quantile=\"0.95\"",
                             s.latency.p95_us);
    net::AppendLabeledSample(&out, "juggler_router_shard_latency_us_sum",
                             "shard", s.address, "", s.latency.sum_us);
    net::AppendLabeledSample(&out, "juggler_router_shard_latency_us_count",
                             "shard", s.address, "",
                             static_cast<double>(s.latency.count));
  }

  net::AppendHeader(&out, "juggler_router_reroutes_total", "counter",
                    "Requests retried on another shard after a transport "
                    "failure.");
  net::AppendSample(&out, "juggler_router_reroutes_total", "", "",
                    static_cast<double>(router_->reroutes()));
  net::AppendHeader(&out, "juggler_router_probes_total", "counter",
                    "Health probes sent.");
  net::AppendSample(&out, "juggler_router_probes_total", "", "",
                    static_cast<double>(router_->probes()));
  net::AppendHeader(&out, "juggler_router_healthy_shards", "gauge",
                    "Shards currently passing health probes.");
  net::AppendSample(&out, "juggler_router_healthy_shards", "", "",
                    static_cast<double>(router_->healthy_shards()));

  net::AppendHttpMetrics(
      &out, http,
      "HTTP requests answered without a handler-pool hop: probes on the "
      "event loop, and recommend singles, batches and observations "
      "forwarded to their shards from the event loop (bodies up to 4 KiB).");

  online::AppendOnlineMetrics(&out);
  net::AppendLockMetrics(&out);
  return out;
}

}  // namespace juggler::cluster
