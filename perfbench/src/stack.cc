#include "stack.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/juggler.h"
#include "core/serialization.h"
#include "online/online_metrics.h"
#include "open_loop.h"
#include "workloads/workloads.h"

namespace juggler::perfbench {

namespace {

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

void CheckOk(const std::string& what, const Status& status) {
  if (!status.ok()) Die(what, status);
}

/// Same options as the repository's HTTP bench and soak stacks.
service::RecommendationService::Options ServiceOptions(int workers) {
  service::RecommendationService::Options options;
  options.num_workers = workers;
  options.queue_capacity = 4'096;
  options.cache.capacity = 1'024;
  return options;
}

}  // namespace

ModelSet TrainModels(const fs::path& dir) {
  fs::create_directories(dir);
  ModelSet set;
  set.dir = dir;
  for (const auto& w : workloads::AllWorkloads()) {
    core::JugglerConfig config;
    config.time_grid = core::TrainingGrid{
        {0.4 * w.paper_params.examples, 0.7 * w.paper_params.examples,
         w.paper_params.examples},
        {0.4 * w.paper_params.features, 0.7 * w.paper_params.features,
         w.paper_params.features},
        w.paper_params.iterations};
    config.memory_reference = w.paper_params;
    config.run_options.noise_sigma = 0.0;
    config.run_options.straggler_prob = 0.0;
    const int64_t start = NowNs();
    auto training = core::TrainJuggler(w.name, w.make, config);
    set.train_ms += static_cast<double>(NowNs() - start) / 1e6;
    if (!training.ok()) Die("training " + w.name, training.status());
    const fs::path path =
        dir / (w.name + service::ModelRegistry::kModelSuffix);
    {
      std::ofstream out(path);
      CheckOk("saving " + path.string(),
              core::SaveTrainedJuggler(training->trained, out));
    }
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    auto loaded = core::TrainedJugglerFromString(text.str());
    if (!loaded.ok()) Die("reloading " + path.string(), loaded.status());
    set.artifacts.emplace(w.name, text.str());
    set.models.emplace(w.name, std::move(loaded).value());
  }
  return set;
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kHandleFast:
      return "net.handle_fast";
    case SpanName::kHandleFastMiss:
      return "net.handle_fast_miss";
    case SpanName::kHandle:
      return "net.handle";
    case SpanName::kRouterHandle:
      return "cluster.router_handle";
    case SpanName::kShardHandle:
      return "cluster.shard_handle";
  }
  return "unknown";
}

void SpanSink::Record(uint64_t request_id, SpanName name, int64_t start_ns,
                      int64_t end_ns) {
  const size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) return;
  spans_[slot] = ServerSpan{request_id, name, start_ns, end_ns};
}

std::vector<ServerSpan> SpanSink::Take() {
  const size_t count = std::min(next_.exchange(0), spans_.size());
  std::vector<ServerSpan> out(spans_.begin(),
                              spans_.begin() + static_cast<std::ptrdiff_t>(count));
  return out;
}

uint64_t RequestIdOf(const net::HttpRequest& request) {
  const std::string* value = request.FindHeader(kRequestIdHeader);
  if (value == nullptr) return 0;
  uint64_t id = 0;
  for (char c : *value) {
    if (c < '0' || c > '9') return 0;
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  return id;
}

// ---- StandaloneStack -------------------------------------------------------

StandaloneStack::StandaloneStack(const fs::path& model_dir, SpanSink* spans) {
  registry_ = std::make_shared<service::ModelRegistry>(model_dir.string());
  CheckOk("registry refresh", registry_->Refresh());
  service_ = std::make_shared<service::RecommendationService>(
      registry_, ServiceOptions(4));
  net::HttpRecommendServer::Options options;
  options.http.num_handler_threads = 4;
  options.http.max_connections = 64;
  server_ = std::make_unique<net::HttpRecommendServer>(registry_, service_,
                                                       options);
  if (spans == nullptr) {
    CheckOk("http server start", server_->Start());
    return;
  }
  // Traced: the same HttpServer front end HttpRecommendServer::Start()
  // would build, with spans around its two public entry points.
  net::HttpRecommendServer* server = server_.get();
  traced_front_ = std::make_unique<net::HttpServer>(
      options.http,
      [server, spans](const net::HttpRequest& request) {
        const int64_t start = NowNs();
        net::HttpResponse response = server->Handle(request);
        spans->Record(RequestIdOf(request), SpanName::kHandle, start, NowNs());
        return response;
      },
      [server, spans](const net::HttpRequest& request) {
        const int64_t start = NowNs();
        std::optional<net::HttpResponse> response = server->HandleFast(request);
        spans->Record(RequestIdOf(request),
                      response.has_value() ? SpanName::kHandleFast
                                           : SpanName::kHandleFastMiss,
                      start, NowNs());
        return response;
      });
  CheckOk("traced http server start", traced_front_->Start());
}

uint16_t StandaloneStack::port() const {
  return traced_front_ != nullptr ? traced_front_->port() : server_->port();
}

StackCounters StandaloneStack::Counters() const {
  StackCounters c;
  c.http = traced_front_ != nullptr ? traced_front_->GetStats()
                                    : server_->http_stats();
  const auto stats = service_->GetStats();
  c.cache_hits = stats.cache.hits;
  c.cache_misses = stats.cache.misses;
  c.rejected = stats.rejected;
  c.deadline_shed = stats.deadline_shed;
  c.evictions = registry_->evictions();
  return c;
}

void StandaloneStack::Stop() {
  if (traced_front_ != nullptr) {
    traced_front_->Stop();
  } else if (server_ != nullptr) {
    server_->Stop();
  }
}

// ---- ClusterStack ----------------------------------------------------------

ClusterStack::ClusterStack(const fs::path& model_dir, SpanSink* spans) {
  const online::OnlineStats online_before = online::SnapshotOnlineStats();
  refits_attempted_base_ = online_before.refits_attempted;
  refits_accepted_base_ = online_before.refits_accepted;
  std::vector<std::string> addresses;
  for (int i = 0; i < kShards; ++i) {
    auto shard = std::make_unique<Shard>();
    service::ModelRegistry::Options ropts;
    ropts.lazy_load = true;
    shard->registry =
        std::make_shared<service::ModelRegistry>(model_dir.string(), ropts);
    CheckOk("shard registry refresh", shard->registry->Refresh());
    shard->service = std::make_shared<service::RecommendationService>(
        shard->registry, ServiceOptions(2));
    online::OnlineJuggler::Options oopts;
    oopts.poll_interval_ms = 1'000;
    oopts.refit.min_records = 16;
    oopts.refit.interval_ms = 1'000;
    shard->online = std::make_shared<online::OnlineJuggler>(
        shard->registry, shard->service, oopts);
    shard->online->Start();
    cluster::ShardServer::Options sopts;
    sopts.rpc.num_handler_threads = 4;
    sopts.online = shard->online;
    shard->server = std::make_unique<cluster::ShardServer>(
        shard->registry, shard->service, sopts);
    if (spans == nullptr) {
      CheckOk("shard start", shard->server->Start());
      addresses.push_back("127.0.0.1:" +
                          std::to_string(shard->server->port()));
    } else {
      cluster::ShardServer* server = shard->server.get();
      shard->traced_front = std::make_unique<rpc::RpcServer>(
          sopts.rpc, [server, spans](const rpc::RpcFrame& request) {
            const int64_t start = NowNs();
            rpc::RpcFrame reply = server->Handle(request);
            if (request.type == rpc::FrameType::kRecommend) {
              spans->Record(0, SpanName::kShardHandle, start, NowNs());
            }
            return reply;
          });
      CheckOk("traced shard start", shard->traced_front->Start());
      addresses.push_back("127.0.0.1:" +
                          std::to_string(shard->traced_front->port()));
    }
    shards_.push_back(std::move(shard));
  }
  cluster::Router::Options ropts;
  ropts.shards = addresses;
  ropts.probe_interval_ms = 100;
  auto created = cluster::Router::Create(ropts);
  if (!created.ok()) Die("router", created.status());
  router_ = std::move(created).value();
  CheckOk("router start", router_->Start());
  cluster::RouterHttpServer::Options hopts;
  hopts.http.num_handler_threads = 8;
  hopts.http.max_connections = 512;
  http_ = std::make_unique<cluster::RouterHttpServer>(router_.get(), hopts);
  if (spans == nullptr) {
    CheckOk("router http start", http_->Start());
    return;
  }
  cluster::RouterHttpServer* http = http_.get();
  traced_front_ = std::make_unique<net::HttpServer>(
      hopts.http, [http, spans](const net::HttpRequest& request) {
        const int64_t start = NowNs();
        net::HttpResponse response = http->Handle(request);
        spans->Record(RequestIdOf(request), SpanName::kRouterHandle, start,
                      NowNs());
        return response;
      });
  CheckOk("traced router http start", traced_front_->Start());
}

uint16_t ClusterStack::port() const {
  return traced_front_ != nullptr ? traced_front_->port() : http_->port();
}

StackCounters ClusterStack::Counters() const {
  StackCounters c;
  c.http = traced_front_ != nullptr ? traced_front_->GetStats()
                                    : http_->http_stats();
  for (const auto& shard : shards_) {
    const auto stats = shard->service->GetStats();
    c.cache_hits += stats.cache.hits;
    c.cache_misses += stats.cache.misses;
    c.rejected += stats.rejected;
    c.deadline_shed += stats.deadline_shed;
    c.evictions += shard->registry->evictions();
  }
  c.reroutes = router_->reroutes();
  for (const auto& s : router_->GetShardStats()) {
    c.shard_requests.push_back(s.requests);
  }
  const online::OnlineStats online = online::SnapshotOnlineStats();
  c.refits_attempted = online.refits_attempted - refits_attempted_base_;
  c.refits_accepted = online.refits_accepted - refits_accepted_base_;
  return c;
}

void ClusterStack::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (traced_front_ != nullptr) {
    traced_front_->Stop();
  } else {
    http_->Stop();
  }
  router_->Stop();
  for (auto& shard : shards_) {
    if (shard->traced_front != nullptr) {
      shard->traced_front->Stop();
    } else {
      shard->server->Stop();
    }
    shard->online->Stop();
  }
}

std::unique_ptr<Stack> StartStack(bool cluster, const fs::path& model_dir,
                                  SpanSink* spans) {
  if (cluster) return std::make_unique<ClusterStack>(model_dir, spans);
  return std::make_unique<StandaloneStack>(model_dir, spans);
}

}  // namespace juggler::perfbench
