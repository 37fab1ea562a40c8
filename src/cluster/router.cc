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
#include "net/poller.h"
#include "online/observation.h"
#include "online/online_metrics.h"
#include "net/prometheus.h"
#include "net/recommend_codec.h"
#include "rpc/rpc_client.h"
#include "service/prediction_cache.h"

namespace juggler::cluster {

namespace {

/// Ring points per shard.
constexpr size_t kVirtualNodes = 64;
/// Distinct shards a keyed leg tries (owner + failovers).
constexpr size_t kMaxAttempts = 3;
/// Idle blocking forwarders kept for reuse, with their shard connections.
constexpr size_t kMaxIdleForwarders = 8;

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

/// A blocking caller's private event loop: a poll(2) poller and the
/// LoopForwarder whose channels it watches. One caller at a time.
struct Router::BlockingForwarder {
  explicit BlockingForwarder(Router* router)
      : poller(net::Poller::Create(/*force_poll=*/true)), forwarder(router) {
    forwarder.OnStart(poller.get());
  }
  /// Declared before the forwarder, whose channels unregister from it.
  std::unique_ptr<net::Poller> poller;
  LoopForwarder forwarder;
};

Router::Router(const Options& options)
    : options_(options),
      ring_(options.shards.size(), kVirtualNodes),
      idle_mu_(lockdiag::RegisterLockClass("cluster.Router.idle_forwarders",
                                           lockdiag::kRankCluster)) {}

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
  Shard& shard = *router_->shards_[index];
  shard.requests.fetch_add(1, std::memory_order_relaxed);
  if (!reply.ok()) {
    // The connection is gone and the shard is suspect; the prober flips
    // `healthy` back once pings succeed again.
    shard.errors.fetch_add(1, std::memory_order_relaxed);
    shard.healthy.store(false, std::memory_order_relaxed);
    last_ = reply.status();
    return std::nullopt;  // Reroute: next shard in the order.
  }
  shard.latency.Record(ElapsedUs(start));
  shard.healthy.store(true, std::memory_order_relaxed);
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
  if (type_ == rpc::FrameType::kReload) return last_;
  return Status::ResourceExhausted("all shards failed: " + last_.message());
}

Router::Walk Router::LegWalk(const ForwardPlan& plan, size_t leg) {
  std::vector<size_t> order;
  if (plan.type == rpc::FrameType::kReload) {
    order.push_back(leg);
  } else if (plan.type == rpc::FrameType::kApps) {
    order.resize(shards_.size());
    std::iota(order.begin(), order.end(), size_t{0});
  } else {
    order = ring_.Preference(plan.legs[leg].route_key, kMaxAttempts);
  }
  return Walk(this, std::move(order), plan.type);
}

// ---- The blocking entry points -------------------------------------------

rpc::RpcChannel::Options Router::ClientOptions(size_t index,
                                               int call_timeout_ms) const {
  rpc::RpcChannel::Options options;
  options.host = shards_[index]->host;
  options.port = shards_[index]->port;
  options.connect_timeout_ms = options_.connect_timeout_ms;
  options.call_timeout_ms = call_timeout_ms;
  options.limits = options_.limits;
  return options;
}

std::vector<StatusOr<std::string>> Router::ForwardAndWait(
    const ForwardPlan& plan) {
  std::unique_ptr<BlockingForwarder> borrowed;
  {
    MutexLock lock(idle_mu_);
    if (!idle_.empty()) {
      borrowed = std::move(idle_.back());
      idle_.pop_back();
    }
  }
  if (borrowed == nullptr) {
    borrowed = std::make_unique<BlockingForwarder>(this);
  }
  // The event loop's turn, on the private poller: flush, wait for
  // readiness or the next deadline, hand the events over, repeat.
  std::vector<StatusOr<std::string>> results;
  LoopForwarder& forwarder = borrowed->forwarder;
  forwarder.Forward(plan, &results);
  std::vector<net::Poller::Event> events;
  for (forwarder.AfterEvents(); !forwarder.idle(); forwarder.AfterEvents()) {
    // A call is in flight, so its deadline bounds the wait.
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
        forwarder.next_deadline() - std::chrono::steady_clock::now());
    Status waited = borrowed->poller->Wait(
        static_cast<int>(std::max<int64_t>(wait.count(), 0)), &events);
    if (!waited.ok()) {
      // The forwarder still holds the calls: it goes, with them.
      return std::vector<StatusOr<std::string>>(plan.legs.size(), waited);
    }
    for (const net::Poller::Event& event : events) forwarder.OnEvent(event);
  }
  MutexLock lock(idle_mu_);
  if (idle_.size() < kMaxIdleForwarders) idle_.push_back(std::move(borrowed));
  return results;
}

StatusOr<std::string> Router::ForwardRecommend(const std::string& route_key,
                                               const std::string& payload) {
  ForwardPlan plan;
  plan.legs.push_back({route_key, payload});
  return std::move(ForwardAndWait(plan)[0]);
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
  const char* const label = plan.type == rpc::FrameType::kReload
                                ? "{\"shard\":"
                                : "{\"app\":";
  std::string body = results ? "{\"results\":[" : "{\"shards\":[";
  for (size_t i = 0; i < replies.size(); ++i) {
    if (i > 0) body.push_back(',');
    if (!results) {
      body.append(label);
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

std::optional<StatusOr<ForwardPlan>> RouterHttpServer::Plan(
    const net::HttpRequest& request, const std::string& path) const {
  const bool post = request.method == "POST";
  if (post && path == "/v1/recommend") return PlanRecommend(request.body);
  if (post && path == "/v1/observe") return PlanObserve(request.body);
  ForwardPlan plan;
  if (request.method == "GET" && path == "/v1/apps") {
    plan.type = rpc::FrameType::kApps;
    plan.legs.push_back({});
    return plan;
  }
  if (post && path == "/v1/reload") {
    plan.type = rpc::FrameType::kReload;
    plan.join = ForwardPlan::Join::kShards;
    for (const std::string& address : router_->shard_addresses()) {
      plan.legs.push_back({address, ""});
    }
    return plan;
  }
  return std::nullopt;
}

bool RouterHttpServer::ForwardOnLoop(const net::HttpRequest& request,
                                     const net::HttpServer::Reply& reply) {
  // The one inline rule, before any parse: a large body goes to the pool
  // whatever it holds.
  if (request.body.size() > net::kInlineBodyBytes) return false;
  std::optional<StatusOr<ForwardPlan>> plan = Plan(request, request.Path());
  if (!plan.has_value()) return false;
  if (!plan->ok()) {
    reply(net::ErrorResponse(plan->status()));
    return true;
  }
  forwarder_->Forward(std::move(*plan).value(), reply);
  return true;
}

net::HttpResponse RouterHttpServer::Handle(const net::HttpRequest& request) {
  const std::string path = request.Path();
  if (std::optional<StatusOr<ForwardPlan>> plan = Plan(request, path)) {
    if (!plan->ok()) return net::ErrorResponse(plan->status());
    return JoinReplies(**plan, router_->ForwardAndWait(**plan));
  }
  if (std::optional<net::HttpResponse> fast = HandleFast(request)) {
    return *std::move(fast);
  }
  if (request.method == "GET" && path == "/metrics") {
    net::HttpResponse response = net::HttpResponse::Text(200, MetricsText());
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return response;
  }
  if (path == "/v1/recommend" || path == "/v1/observe" ||
      path == "/v1/reload") {
    return net::MethodNotAllowed("POST");
  }
  if (path == "/v1/apps" || path == "/livez" || path == "/healthz" ||
      path == "/readyz" || path == "/metrics") {
    return net::MethodNotAllowed("GET");
  }
  return net::ErrorResponse(
      Status::NotFound("no route for " + request.method + " " + path));
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
      "event loop, and recommends, observations, apps and reloads "
      "forwarded to their shards from the event loop (bodies up to 4 KiB).");

  online::AppendOnlineMetrics(&out);
  net::AppendLockMetrics(&out);
  return out;
}

}  // namespace juggler::cluster
