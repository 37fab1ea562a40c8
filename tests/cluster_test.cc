// Tests for the src/cluster subsystem: HashRing properties (spread,
// stability, failover order), the ShardServer frame protocol and its inline
// answers, and the Router + RouterHttpServer end-to-end paths over real
// loopback RPC — the blocking Handle() entry point and the event loop, which
// forward through the same LoopForwarder — including the
// reroute-on-shard-kill chaos tests (ctest -L chaos).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/hash_ring.h"
#include "cluster/router.h"
#include "cluster/shard_server.h"
#include "core/juggler.h"
#include "net/http.h"
#include "net/http_recommend_server.h"
#include "net/json.h"
#include "net/recommend_codec.h"
#include "online/observation.h"
#include "online/online_loop.h"
#include "rpc/rpc_client.h"
#include "service/model_registry.h"
#include "service/prediction_cache.h"
#include "service/recommendation_service.h"
#include "test_models.h"

namespace juggler::cluster {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------------------

TEST(HashRingTest, HashBytesIsDeterministicAndSpreads) {
  EXPECT_EQ(HashBytes("svm"), HashBytes("svm"));
  EXPECT_NE(HashBytes("svm"), HashBytes("pca"));
  EXPECT_NE(HashBytes(""), HashBytes(std::string("\0", 1)));
  // Single-bit input changes must move the hash (avalanche smoke check).
  EXPECT_NE(HashBytes("key0"), HashBytes("key1"));
}

TEST(HashRingTest, OwnerIsStableAcrossInstances) {
  const HashRing a(5, 64);
  const HashRing b(5, 64);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(a.Owner(key), b.Owner(key)) << key;
  }
}

TEST(HashRingTest, DistributionStaysNearUniform) {
  constexpr size_t kNodes = 3;
  constexpr int kKeys = 30'000;
  const HashRing ring(kNodes, 64);
  std::map<size_t, int> share;
  for (int i = 0; i < kKeys; ++i) {
    share[ring.Owner("app-" + std::to_string(i))]++;
  }
  ASSERT_EQ(share.size(), kNodes) << "every node must own some keys";
  for (const auto& [node, count] : share) {
    const double fraction = static_cast<double>(count) / kKeys;
    // 64 virtual nodes keep each share well within 2x of fair; pin a
    // tolerance loose enough to be deterministic-stable but tight enough
    // to catch a broken ring (e.g. all keys on one node).
    EXPECT_GT(fraction, 0.15) << "node " << node << " starved";
    EXPECT_LT(fraction, 0.55) << "node " << node << " overloaded";
  }
}

TEST(HashRingTest, AddingANodeOnlyMovesKeysToTheNewNode) {
  // The consistent-hashing contract: growing {0,1,2} to {0,1,2,3} never
  // moves a key between the original nodes — a key either keeps its owner
  // or moves to the new node (existing nodes' ring points are unchanged).
  const HashRing before(3, 64);
  const HashRing after(4, 64);
  int moved = 0;
  constexpr int kKeys = 10'000;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const size_t old_owner = before.Owner(key);
    const size_t new_owner = after.Owner(key);
    if (new_owner != old_owner) {
      EXPECT_EQ(new_owner, 3u) << key << " moved between existing nodes";
      ++moved;
    }
  }
  // Roughly 1/4 of keys should move to the new node — far from "all" (naive
  // modulo hashing) and far from "none" (new node starved).
  EXPECT_GT(moved, kKeys / 10);
  EXPECT_LT(moved, kKeys / 2);
}

TEST(HashRingTest, PreferenceYieldsDistinctNodesStartingAtTheOwner) {
  const HashRing ring(4, 64);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const auto prefs = ring.Preference(key, 4);
    ASSERT_EQ(prefs.size(), 4u);
    EXPECT_EQ(prefs[0], ring.Owner(key));
    EXPECT_EQ(std::set<size_t>(prefs.begin(), prefs.end()).size(), 4u)
        << "failover order must be distinct nodes";
  }
  // n past node_count clamps; n == 0 is empty.
  EXPECT_EQ(ring.Preference("k", 10).size(), 4u);
  EXPECT_TRUE(ring.Preference("k", 0).empty());
}

TEST(HashRingTest, SingleNodeOwnsEverything) {
  const HashRing ring(1, 8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ring.Owner("key-" + std::to_string(i)), 0u);
  }
}

// ---------------------------------------------------------------------------
// Cluster fixture: one trained model served by two in-process shards behind
// a router. Training dominates runtime, so the model is built once.
// ---------------------------------------------------------------------------

const core::TrainedJuggler& SvmModel() {
  static const auto* const model =
      new core::TrainedJuggler(test::TrainSmall("svm"));
  return *model;
}

struct Shard {
  std::shared_ptr<service::ModelRegistry> registry;
  std::shared_ptr<service::RecommendationService> service;
  /// Null unless the fixture runs online shards.
  std::shared_ptr<online::OnlineJuggler> online;
  std::unique_ptr<ShardServer> server;
};

struct ClusterFixture {
  fs::path dir;
  std::vector<std::unique_ptr<Shard>> shards;
  std::unique_ptr<Router> router;
  std::unique_ptr<RouterHttpServer> http;

  /// `tune` adjusts the router's options last (extra shard addresses,
  /// timeouts). `online_shards` gives every shard an online loop (its
  /// refit thread not started), so kObserve frames are buffered.
  explicit ClusterFixture(
      const std::string& test_name, size_t shard_count = 2,
      int probe_interval_ms = 50,
      const std::function<void(Router::Options*)>& tune = nullptr,
      bool online_shards = false) {
    dir = test::MakeModelDir("cluster", test_name);
    test::SaveModel(SvmModel(), dir / "svm.model");

    std::vector<std::string> addresses;
    for (size_t i = 0; i < shard_count; ++i) {
      auto shard = std::make_unique<Shard>();
      // Shards run the lazy registry, exactly as --role=shard does: models
      // load on first use, so each shard only pays for what routes to it.
      service::ModelRegistry::Options ropts;
      ropts.lazy_load = true;
      shard->registry = std::make_shared<service::ModelRegistry>(dir.string(),
                                                                 ropts);
      EXPECT_TRUE(shard->registry->Refresh().ok());
      shard->service = std::make_shared<service::RecommendationService>(
          shard->registry, service::RecommendationService::Options{});
      ShardServer::Options sopts;
      sopts.rpc.num_handler_threads = 2;
      if (online_shards) {
        shard->online = std::make_shared<online::OnlineJuggler>(
            shard->registry, shard->service, online::OnlineJuggler::Options{});
        sopts.online = shard->online;
      }
      shard->server = std::make_unique<ShardServer>(shard->registry,
                                                    shard->service, sopts);
      EXPECT_TRUE(shard->server->Start().ok());
      addresses.push_back("127.0.0.1:" +
                          std::to_string(shard->server->port()));
      shards.push_back(std::move(shard));
    }

    Router::Options ropts;
    ropts.shards = addresses;
    ropts.probe_interval_ms = probe_interval_ms;
    ropts.connect_timeout_ms = 500;
    if (tune) tune(&ropts);
    auto created = Router::Create(ropts);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    router = std::move(created).value();
    EXPECT_TRUE(router->Start().ok());
    http = std::make_unique<RouterHttpServer>(router.get(),
                                              RouterHttpServer::Options{});
  }

  ~ClusterFixture() {
    http->Stop();
    if (router != nullptr) router->Stop();
    for (auto& shard : shards) shard->server->Stop();
  }

  /// Starts the router's HTTP front end; returns its port.
  uint16_t StartHttp() {
    EXPECT_TRUE(http->Start().ok());
    return http->port();
  }
};

/// Blocking keep-alive HTTP client: the other side of every conversation is
/// the router's non-blocking server.
class HttpClient {
 public:
  explicit HttpClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~HttpClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  struct Reply {
    int status = -1;  ///< -1: no complete response (EOF or timeout).
    std::string body;
  };

  Reply Call(const std::string& method, const std::string& target,
             const std::string& body = "") {
    const std::string request = method + " " + target +
                                " HTTP/1.1\r\nHost: test\r\nContent-Length: " +
                                std::to_string(body.size()) + "\r\n\r\n" +
                                body;
    size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return Reply{};
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      const size_t header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        size_t length = 0;
        const std::string needle = "Content-Length: ";
        const size_t pos = buffer_.find(needle);
        if (pos != std::string::npos && pos < header_end) {
          length = static_cast<size_t>(
              std::stoul(buffer_.substr(pos + needle.size())));
        }
        const size_t total = header_end + 4 + length;
        if (buffer_.size() >= total) {
          Reply reply;
          reply.status = std::stoi(buffer_.substr(9, 3));
          reply.body = buffer_.substr(header_end + 4, length);
          buffer_.erase(0, total);
          return reply;
        }
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return Reply{};
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The `# HELP` text of every `juggler_http_*` series in a /metrics text,
/// by series name.
std::map<std::string, std::string> HttpSeriesHelp(const std::string& text) {
  static constexpr std::string_view kPrefix = "# HELP juggler_http_";
  std::map<std::string, std::string> help;
  for (size_t at = text.find(kPrefix); at != std::string::npos;
       at = text.find(kPrefix, at + 1)) {
    const size_t name_start = at + 7;  // After "# HELP ".
    const size_t name_end = text.find(' ', name_start);
    const size_t line_end = text.find('\n', name_end);
    help[text.substr(name_start, name_end - name_start)] =
        text.substr(name_end + 1, line_end - name_end - 1);
  }
  return help;
}

/// A single-recommend body for svm with `examples` examples.
std::string SvmBody(int examples) {
  return std::string(R"({"app":"svm","params":{"examples":)") +
         std::to_string(examples) + R"(,"features":3000,"iterations":5}})";
}

/// The JSON form of an observation body: `per_app` run-time records for
/// each of `apps`.
std::string ObservationBody(const std::vector<std::string>& apps,
                            int per_app) {
  std::string body = "[";
  for (const std::string& app : apps) {
    for (int i = 0; i < per_app; ++i) {
      if (body.size() > 1) body += ",";
      body += R"({"kind":"run_time","app":")" + app +
              R"(","target":1,"params":{"examples":)" +
              std::to_string(12000 + 1000 * i) +
              R"(,"features":3000,"iterations":5},"value":800.0})";
    }
  }
  return body + "]";
}

/// `body` with every "cache_hit":false rewritten to true: an answer that
/// filled the cache and one read from it then compare equal.
std::string NormaliseCacheHit(std::string body) {
  static constexpr std::string_view kMiss = "\"cache_hit\":false";
  static constexpr std::string_view kHit = "\"cache_hit\":true";
  for (size_t at = body.find(kMiss); at != std::string::npos;
       at = body.find(kMiss, at + kHit.size())) {
    body.replace(at, kMiss.size(), kHit);
  }
  return body;
}

/// The router's route key for a single-recommend body.
std::string RouteKeyOf(const std::string& body) {
  auto json = net::Json::Parse(body);
  EXPECT_TRUE(json.ok());
  auto parsed = net::ParseRecommendRequest(*json);
  EXPECT_TRUE(parsed.ok());
  return service::PredictionCache::MakeKey(parsed->app, 0, parsed->params,
                                           parsed->machine_type);
}

/// A listener that accepts into its backlog and never reads or answers: a
/// hung shard.
class SilentShard {
 public:
  SilentShard() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::listen(fd_, 16), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~SilentShard() { ::close(fd_); }
  std::string address() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

net::HttpRequest MakeRequest(const std::string& method,
                             const std::string& target,
                             const std::string& body = "") {
  net::HttpRequest request;
  request.method = method;
  request.target = target;
  request.version = "HTTP/1.1";
  request.body = body;
  return request;
}

constexpr char kSvmBody[] =
    R"({"app":"svm","params":{"examples":12000,"features":3000,)"
    R"("iterations":5}})";

// ---------------------------------------------------------------------------
// Router end-to-end (no HTTP socket: RouterHttpServer::Handle directly; the
// RPC hop underneath runs over real loopback sockets).
// ---------------------------------------------------------------------------

TEST(RouterTest, CreateValidatesAddresses) {
  for (const std::string bad :
       {"", "localhost", ":8080", "host:", "host:0", "host:99999",
        "host:abc"}) {
    Router::Options options;
    options.shards = {bad};
    EXPECT_FALSE(Router::Create(options).ok()) << "'" << bad << "'";
  }
  Router::Options none;
  EXPECT_FALSE(Router::Create(none).ok()) << "empty shard list";
  Router::Options good;
  good.shards = {"127.0.0.1:9001", "shard-2.local:9002"};
  EXPECT_TRUE(Router::Create(good).ok());
}

TEST(RouterTest, RecommendRoutesColdThenWarmIdentically) {
  ClusterFixture f("warm");
  const auto request = MakeRequest("POST", "/v1/recommend", kSvmBody);

  const auto cold = f.http->Handle(request);
  ASSERT_EQ(cold.status, 200) << cold.body;
  auto cold_json = net::Json::Parse(cold.body);
  ASSERT_TRUE(cold_json.ok()) << cold.body;
  ASSERT_NE(cold_json->Find("recommendations"), nullptr);
  EXPECT_FALSE(cold_json->Find("recommendations")->array_items().empty());

  // Same question routes to the same shard, whose cache is now warm: the
  // recommendations must be bit-identical and the hit flag on.
  const auto warm = f.http->Handle(request);
  ASSERT_EQ(warm.status, 200);
  auto warm_json = net::Json::Parse(warm.body);
  ASSERT_TRUE(warm_json.ok());
  EXPECT_EQ(warm_json->Find("recommendations")->Dump(),
            cold_json->Find("recommendations")->Dump());
  ASSERT_NE(warm_json->Find("cache_hit"), nullptr);
  EXPECT_TRUE(warm_json->Find("cache_hit")->bool_value());

  // Exactly one shard served both calls (sticky routing); the other saw none
  // of this traffic (probes don't count as requests).
  const auto stats = f.router->GetShardStats();
  ASSERT_EQ(stats.size(), 2u);
  const uint64_t total = stats[0].requests + stats[1].requests;
  EXPECT_EQ(total, 2u);
  EXPECT_TRUE(stats[0].requests == 0 || stats[1].requests == 0)
      << "the same key must not fan out across shards";
}

TEST(RouterTest, UnknownAppComesBackAs404NotAReroute) {
  ClusterFixture f("unknown_app");
  const auto response = f.http->Handle(MakeRequest(
      "POST", "/v1/recommend",
      R"({"app":"no-such-app","params":{"examples":12000,"features":3000,)"
      R"("iterations":5}})"));
  EXPECT_EQ(response.status, 404) << response.body;
  EXPECT_NE(response.body.find("NOT_FOUND"), std::string::npos);
  EXPECT_EQ(f.router->reroutes(), 0u)
      << "application errors must never reroute";
}

TEST(RouterTest, MalformedBodyIs400WithoutANetworkHop) {
  ClusterFixture f("bad_body");
  const auto response =
      f.http->Handle(MakeRequest("POST", "/v1/recommend", "not json"));
  EXPECT_EQ(response.status, 400);
  const auto stats = f.router->GetShardStats();
  EXPECT_EQ(stats[0].requests + stats[1].requests, 0u)
      << "validation failures must not reach a shard";
}

TEST(RouterTest, BatchRoutesEachSlotAndSplicesResults) {
  ClusterFixture f("batch");
  const std::string body =
      R"({"requests":[)" + std::string(kSvmBody) + "," +
      R"({"app":"svm","params":{"examples":24000,"features":1000,)" +
      R"("iterations":5}}]})";
  const auto response = f.http->Handle(MakeRequest("POST", "/v1/recommend",
                                                   body));
  ASSERT_EQ(response.status, 200) << response.body;
  auto json = net::Json::Parse(response.body);
  ASSERT_TRUE(json.ok()) << response.body;
  ASSERT_NE(json->Find("results"), nullptr);
  ASSERT_EQ(json->Find("results")->array_items().size(), 2u);
  for (const auto& result : json->Find("results")->array_items()) {
    EXPECT_NE(result.Find("recommendations"), nullptr);
  }

  // One malformed slot fails the whole batch before any forwarding.
  const auto bad = f.http->Handle(MakeRequest(
      "POST", "/v1/recommend",
      R"({"requests":[)" + std::string(kSvmBody) + R"(,{"params":{}}]})"));
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("requests[1]"), std::string::npos) << bad.body;
}

TEST(RouterTest, AppsAndReloadAndMetricsRoutes) {
  ClusterFixture f("routes");
  const auto apps = f.http->Handle(MakeRequest("GET", "/v1/apps"));
  ASSERT_EQ(apps.status, 200) << apps.body;
  EXPECT_NE(apps.body.find("svm"), std::string::npos);

  const auto reload = f.http->Handle(MakeRequest("POST", "/v1/reload"));
  ASSERT_EQ(reload.status, 200) << reload.body;
  auto reload_json = net::Json::Parse(reload.body);
  ASSERT_TRUE(reload_json.ok()) << reload.body;
  ASSERT_NE(reload_json->Find("shards"), nullptr);
  EXPECT_EQ(reload_json->Find("shards")->array_items().size(), 2u);

  const auto health = f.http->Handle(MakeRequest("GET", "/healthz"));
  EXPECT_EQ(health.status, 200);

  const auto metrics = f.http->Handle(MakeRequest("GET", "/metrics"));
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("juggler_router_shard_healthy{shard=\""),
            std::string::npos);
  EXPECT_NE(metrics.body.find("juggler_router_reroutes_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("juggler_router_healthy_shards"),
            std::string::npos);
  // Lock-pressure series: the router's idle blocking forwarders sit behind
  // a named lock class, so its counters must surface here.
  EXPECT_NE(metrics.body.find("juggler_lock_acquisitions_total{lock="
                              "\"cluster.Router.idle_forwarders\"}"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("juggler_lock_hold_seconds_total"),
            std::string::npos);

  EXPECT_NE(metrics.body.find("juggler_http_fast_path_total"),
            std::string::npos);
  EXPECT_EQ(metrics.body.find("juggler_router_warm"), std::string::npos)
      << "the warm-hint series are gone";

  // Both HTTP edges export the same transport series with the same help;
  // only what counts as the fast path differs between them.
  const net::HttpRecommendServer standalone(
      f.shards[0]->registry, f.shards[0]->service,
      net::HttpRecommendServer::Options{});
  auto router_help = HttpSeriesHelp(metrics.body);
  auto standalone_help = HttpSeriesHelp(standalone.MetricsText());
  ASSERT_EQ(router_help.count("juggler_http_fast_path_total"), 1u);
  ASSERT_EQ(standalone_help.count("juggler_http_fast_path_total"), 1u);
  EXPECT_NE(router_help["juggler_http_fast_path_total"],
            standalone_help["juggler_http_fast_path_total"]);
  router_help.erase("juggler_http_fast_path_total");
  standalone_help.erase("juggler_http_fast_path_total");
  EXPECT_EQ(router_help, standalone_help);
  EXPECT_EQ(router_help.size(), 8u) << "the other juggler_http_* series";

  const auto missing = f.http->Handle(MakeRequest("GET", "/nope"));
  EXPECT_EQ(missing.status, 404);
}

TEST(RouterTest, KnownPathWithTheWrongMethodIs405WithAllow) {
  ClusterFixture f("method");
  const auto allow_of = [](const net::HttpResponse& response) {
    for (const auto& [name, value] : response.headers) {
      if (name == "Allow") return value;
    }
    return std::string();
  };
  const auto get_recommend =
      f.http->Handle(MakeRequest("GET", "/v1/recommend"));
  EXPECT_EQ(get_recommend.status, 405) << get_recommend.body;
  EXPECT_EQ(allow_of(get_recommend), "POST");
  const auto post_livez = f.http->Handle(MakeRequest("POST", "/livez"));
  EXPECT_EQ(post_livez.status, 405) << post_livez.body;
  EXPECT_EQ(allow_of(post_livez), "GET");
  EXPECT_EQ(f.http->Handle(MakeRequest("PUT", "/v1/apps")).status, 405);
  EXPECT_EQ(f.http->Handle(MakeRequest("GET", "/v1/observe")).status, 405);

  // Same answers through the event loop (fast and deferred paths decline,
  // the pool answers).
  HttpClient client(f.StartHttp());
  EXPECT_EQ(client.Call("GET", "/v1/recommend").status, 405);
  EXPECT_EQ(client.Call("POST", "/livez").status, 405);
  EXPECT_EQ(client.Call("GET", "/livez").status, 200);
  const auto stats = f.router->GetShardStats();
  EXPECT_EQ(stats[0].requests + stats[1].requests, 0u)
      << "a wrong method must not reach a shard";
}

// ---------------------------------------------------------------------------
// Chaos: kill a shard mid-load; every client request must still succeed.
// Registered with LABELS chaos (ctest -L chaos).
// ---------------------------------------------------------------------------

TEST(RouterChaosTest, KillingAShardReroutesWithZeroClientErrors) {
  ClusterFixture f("kill", /*shard_count=*/2, /*probe_interval_ms=*/50);
  const auto request = MakeRequest("POST", "/v1/recommend", kSvmBody);

  // Warm the route so we know which shard owns this key.
  ASSERT_EQ(f.http->Handle(request).status, 200);
  const auto before = f.router->GetShardStats();
  const size_t owner = before[0].requests > 0 ? 0 : 1;

  // Kill the owning shard — the worst case: the very shard this key's
  // preference order starts at.
  f.shards[owner]->server->Stop();

  int failures = 0;
  for (int i = 0; i < 30; ++i) {
    const auto response = f.http->Handle(request);
    if (response.status != 200) {
      ++failures;
      ADD_FAILURE() << "request " << i << " failed: " << response.status
                    << " " << response.body;
    }
  }
  EXPECT_EQ(failures, 0) << "a dead shard must be invisible to clients";
  EXPECT_GE(f.router->reroutes(), 1u)
      << "the first post-kill request must have rerouted away from the owner";

  // The prober converges on the truth within a few intervals.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (f.router->healthy_shards() != 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(f.router->healthy_shards(), 1u);

  // Health endpoint stays green on the surviving shard.
  EXPECT_EQ(f.http->Handle(MakeRequest("GET", "/healthz")).status, 200);

  // Metrics reflect the event.
  const std::string metrics = f.http->MetricsText();
  EXPECT_NE(metrics.find("juggler_router_healthy_shards 1"),
            std::string::npos)
      << metrics;
}

TEST(RouterChaosTest, FailoverReroutesTheDeadOwnersKeysToTheSurvivor) {
  // Long probe interval: the prober must not mark the killed shard down
  // before the rerouted request observes the transport failure itself.
  ClusterFixture f("failover", /*shard_count=*/2,
                   /*probe_interval_ms=*/5000);

  // Serve distinct questions until one shard owns one of them.
  std::string owned_body;
  size_t owner = 2;
  for (int i = 0; i < 32 && owner == 2; ++i) {
    const std::string body = SvmBody(12000 + 500 * i);
    const auto before = f.router->GetShardStats();
    ASSERT_EQ(f.http->Handle(MakeRequest("POST", "/v1/recommend", body)).status,
              200);
    const auto after = f.router->GetShardStats();
    for (size_t s = 0; s < 2; ++s) {
      if (after[s].requests > before[s].requests) {
        owner = s;
        owned_body = body;
      }
    }
  }
  ASSERT_LT(owner, 2u);
  const size_t survivor = 1 - owner;

  // The prober pings both shards once right at Start(). Let that round end
  // before the owner dies: if it ran late it would mark the owner down, and
  // the request would skip it instead of observing the failure.
  const auto probed_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (f.router->probes() < 2 &&
         std::chrono::steady_clock::now() < probed_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  f.shards[owner]->server->Stop();

  const auto before = f.router->GetShardStats();
  const auto rerouted =
      f.http->Handle(MakeRequest("POST", "/v1/recommend", owned_body));
  ASSERT_EQ(rerouted.status, 200) << rerouted.body;
  EXPECT_GE(f.router->reroutes(), 1u);
  const auto after = f.router->GetShardStats();
  EXPECT_EQ(after[owner].errors, before[owner].errors + 1)
      << "the dead owner was tried first and failed transport-wise";
  EXPECT_EQ(after[survivor].requests, before[survivor].requests + 1);
  EXPECT_FALSE(after[owner].healthy);
}

TEST(RouterChaosTest, ReloadWithAShardDownReportsThatShardsOwnError) {
  ClusterFixture f("reload_down");
  const std::string live = "127.0.0.1:" +
                           std::to_string(f.shards[0]->server->port());
  const std::string dead = "127.0.0.1:" +
                           std::to_string(f.shards[1]->server->port());
  // Killed before any request: the router has no connection to it.
  f.shards[1]->server->Stop();
  rpc::RpcFrame reload;
  reload.type = rpc::FrameType::kReload;
  const std::string live_reply = f.shards[0]->server->Handle(reload).payload;
  // A reload is pinned to each shard: the dead one's entry is its own dial
  // failure, not a failover walk's "all shards failed" summary.
  const std::string expected =
      R"({"shards":[{"shard":")" + live + R"(","reply":)" + live_reply +
      R"(},{"shard":")" + dead +
      R"(","error":{"error":{"code":"INTERNAL","message":"connect )" + dead +
      R"(: Connection refused"}}}]})";

  const auto handled = f.http->Handle(MakeRequest("POST", "/v1/reload"));
  EXPECT_EQ(handled.status, 200);
  EXPECT_EQ(handled.body, expected);
  HttpClient client(f.StartHttp());
  const auto looped = client.Call("POST", "/v1/reload");
  EXPECT_EQ(looped.status, 200);
  EXPECT_EQ(looped.body, expected);
  EXPECT_EQ(f.router->reroutes(), 0u) << "a reload never reroutes";
  const auto stats = f.router->GetShardStats();
  EXPECT_EQ(stats[1].errors, 2u);
  EXPECT_EQ(stats[0].errors, 0u);
}

TEST(RouterChaosTest, AllShardsDownIs503ShapedAndHealthzGoesRed) {
  ClusterFixture f("all_down", /*shard_count=*/2, /*probe_interval_ms=*/50);
  for (auto& shard : f.shards) shard->server->Stop();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (f.router->healthy_shards() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(f.router->healthy_shards(), 0u);

  const auto response =
      f.http->Handle(MakeRequest("POST", "/v1/recommend", kSvmBody));
  EXPECT_EQ(response.status, 503) << response.body;
  EXPECT_NE(response.body.find("RESOURCE_EXHAUSTED"), std::string::npos);
  EXPECT_EQ(f.http->Handle(MakeRequest("GET", "/healthz")).status, 503);
}

// ---------------------------------------------------------------------------
// The event-loop forwarding path: RouterHttpServer over real sockets, whose
// loop forwards singles over pipelined shard connections.
// ---------------------------------------------------------------------------

TEST(RouterLoopTest, ConcurrentClientsGetTheBytesHandleReturns) {
  ClusterFixture f("loop_bytes");
  // Reference answers from the blocking path, taken warm: the first call
  // fills the owner's cache, and cache_hit is part of the bytes. The inputs
  // are four singles and one batch with two slots on each shard (warming it
  // also loads the model on both shards).
  std::vector<std::string> bodies;
  for (int i = 0; i < 4; ++i) bodies.push_back(SvmBody(12000 + 1000 * i));
  std::string batch = R"({"requests":[)";
  size_t batch_slots = 0;
  size_t per_shard[2] = {0, 0};
  for (int i = 0; i < 64 && batch_slots < 4; ++i) {
    const std::string slot = SvmBody(40000 + 250 * i);
    size_t& taken = per_shard[f.router->ring().Owner(RouteKeyOf(slot))];
    if (taken == 2) continue;
    ++taken;
    batch += (batch_slots++ == 0 ? "" : ",") + slot;
  }
  ASSERT_EQ(batch_slots, 4u) << "the batch spans both shards";
  bodies.push_back(batch + "]}");
  const size_t batch_index = bodies.size() - 1;
  std::vector<std::string> expected;
  for (const std::string& body : bodies) {
    const auto request = MakeRequest("POST", "/v1/recommend", body);
    ASSERT_EQ(f.http->Handle(request).status, 200);
    const auto warm = f.http->Handle(request);
    ASSERT_EQ(warm.status, 200) << warm.body;
    expected.push_back(warm.body);
  }

  const uint16_t port = f.StartHttp();
  const auto before = f.router->GetShardStats();
  const auto http_before = f.http->http_stats();
  uint64_t shard_inline_before = 0;
  for (const auto& shard : f.shards) {
    shard_inline_before += shard->server->rpc_stats().fast_path;
  }

  constexpr int kClients = 8;
  constexpr int kPerClient = 25;
  std::atomic<uint64_t> legs{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client(port);
      for (int i = 0; i < kPerClient; ++i) {
        if (i % 5 == 0) {
          // Cold: a question no shard has seen, evaluated on its owner's
          // loop. Handle() afterwards reads the cache it filled.
          const std::string body = SvmBody(60000 + 100 * (c * kPerClient + i));
          const auto reply = client.Call("POST", "/v1/recommend", body);
          const auto reference =
              f.http->Handle(MakeRequest("POST", "/v1/recommend", body));
          if (reply.status != 200 ||
              NormaliseCacheHit(reply.body) !=
                  NormaliseCacheHit(reference.body)) {
            mismatches.fetch_add(1);
          }
          legs.fetch_add(1);
          continue;
        }
        const size_t k = static_cast<size_t>(c + i) % bodies.size();
        const auto reply = client.Call("POST", "/v1/recommend", bodies[k]);
        if (reply.status != 200 || reply.body != expected[k]) {
          mismatches.fetch_add(1);
        }
        legs.fetch_add(k == batch_index ? batch_slots : 1);
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);

  constexpr uint64_t kTotal = kClients * kPerClient;
  const auto http_after = f.http->http_stats();
  EXPECT_EQ(http_after.requests - http_before.requests, kTotal);
  EXPECT_EQ(http_after.fast_path - http_before.fast_path, kTotal)
      << "every request must be forwarded from the loop, none by the pool";
  // The per-shard series move on the loop path as on the pool path: one
  // call per single, one per batch slot, and one per cold Handle() check.
  constexpr uint64_t kColdChecks = kClients * ((kPerClient + 4) / 5);
  const auto after = f.router->GetShardStats();
  uint64_t calls = 0;
  uint64_t timed = 0;
  for (size_t s = 0; s < after.size(); ++s) {
    calls += after[s].requests - before[s].requests;
    timed += after[s].latency.count - before[s].latency.count;
    EXPECT_EQ(after[s].errors, before[s].errors);
    EXPECT_TRUE(after[s].healthy);
  }
  EXPECT_EQ(calls, legs.load() + kColdChecks);
  EXPECT_EQ(timed, legs.load() + kColdChecks);
  EXPECT_EQ(f.router->reroutes(), 0u);
  // And the shards answered every call inline on their own loops (every
  // model is resident, so warm and cold questions alike).
  uint64_t shard_inline_after = 0;
  for (const auto& shard : f.shards) {
    shard_inline_after += shard->server->rpc_stats().fast_path;
  }
  EXPECT_GE(shard_inline_after - shard_inline_before, calls);
}

TEST(RouterLoopTest, ValidationErrorsAndBatchesKeepTheirAnswers) {
  ClusterFixture f("loop_validate");
  HttpClient client(f.StartHttp());
  const auto bad = client.Call("POST", "/v1/recommend", "not json");
  EXPECT_EQ(bad.status, 400);
  EXPECT_EQ(bad.body,
            f.http->Handle(MakeRequest("POST", "/v1/recommend", "not json"))
                .body);
  const auto unknown = client.Call(
      "POST", "/v1/recommend",
      R"({"app":"no-such-app","params":{"examples":12000,"features":3000,)"
      R"("iterations":5}})");
  EXPECT_EQ(unknown.status, 404) << unknown.body;
  EXPECT_EQ(f.router->reroutes(), 0u) << "kError replies never reroute";

  const std::string batch = R"({"requests":[)" + std::string(kSvmBody) +
                            "," + SvmBody(24000) + "]}";
  const auto batch_request = MakeRequest("POST", "/v1/recommend", batch);
  ASSERT_EQ(f.http->Handle(batch_request).status, 200);  // Warm both slots.
  const auto http_before = f.http->http_stats();
  const auto batched = client.Call("POST", "/v1/recommend", batch);
  ASSERT_EQ(batched.status, 200) << batched.body;
  auto json = net::Json::Parse(batched.body);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Find("results")->array_items().size(), 2u);
  EXPECT_EQ(batched.body, f.http->Handle(batch_request).body);
  EXPECT_EQ(f.http->http_stats().fast_path, http_before.fast_path + 1)
      << "batches are forwarded from the loop, not the pool";

  // The inline rule holds on the router too: a body at the cap is
  // forwarded from the loop, one byte more goes to the pool. Same answer.
  std::string at_cap = kSvmBody;
  at_cap.append(net::kInlineBodyBytes - at_cap.size(), ' ');
  const std::string over_cap = at_cap + " ";
  const auto before_cap = f.http->http_stats();
  const auto inline_reply = client.Call("POST", "/v1/recommend", at_cap);
  ASSERT_EQ(inline_reply.status, 200) << inline_reply.body;
  EXPECT_EQ(f.http->http_stats().fast_path, before_cap.fast_path + 1);
  const auto pooled_reply = client.Call("POST", "/v1/recommend", over_cap);
  ASSERT_EQ(pooled_reply.status, 200) << pooled_reply.body;
  EXPECT_EQ(f.http->http_stats().fast_path, before_cap.fast_path + 1)
      << "one byte over the cap takes the pool";
  EXPECT_EQ(pooled_reply.body, inline_reply.body);  // Both warm by now.

  // A malformed slot is the same 400, answered on the loop with no hop.
  const std::string malformed =
      R"({"requests":[)" + std::string(kSvmBody) + R"(,{"params":{}}]})";
  const auto bad_batch = client.Call("POST", "/v1/recommend", malformed);
  EXPECT_EQ(bad_batch.status, 400);
  EXPECT_EQ(bad_batch.body,
            f.http->Handle(MakeRequest("POST", "/v1/recommend", malformed))
                .body);
}

TEST(RouterLoopTest, AppsAndReloadAreForwardedFromTheLoop) {
  ClusterFixture f("loop_admin");
  // Golden documents, built from the shards' own replies: apps from the
  // first shard (index order), reload from every shard, joined by address.
  rpc::RpcFrame apps;
  apps.type = rpc::FrameType::kApps;
  rpc::RpcFrame reload;
  reload.type = rpc::FrameType::kReload;
  const std::string expected_apps = f.shards[0]->server->Handle(apps).payload;
  std::string expected_reload = R"({"shards":[)";
  for (size_t s = 0; s < f.shards.size(); ++s) {
    expected_reload += std::string(s == 0 ? "" : ",") + R"({"shard":"127.0.0.1:)" +
                       std::to_string(f.shards[s]->server->port()) +
                       R"(","reply":)" +
                       f.shards[s]->server->Handle(reload).payload + "}";
  }
  expected_reload += "]}";

  const auto handled_apps = f.http->Handle(MakeRequest("GET", "/v1/apps"));
  ASSERT_EQ(handled_apps.status, 200) << handled_apps.body;
  EXPECT_EQ(handled_apps.body, expected_apps);
  const auto handled_reload =
      f.http->Handle(MakeRequest("POST", "/v1/reload"));
  ASSERT_EQ(handled_reload.status, 200) << handled_reload.body;
  EXPECT_EQ(handled_reload.body, expected_reload);

  HttpClient client(f.StartHttp());
  const auto before = f.http->http_stats();
  const auto looped_apps = client.Call("GET", "/v1/apps");
  EXPECT_EQ(looped_apps.status, 200);
  EXPECT_EQ(looped_apps.body, expected_apps);
  const auto looped_reload = client.Call("POST", "/v1/reload");
  EXPECT_EQ(looped_reload.status, 200);
  EXPECT_EQ(looped_reload.body, expected_reload);
  EXPECT_EQ(f.http->http_stats().fast_path, before.fast_path + 2)
      << "apps and reload are forwarded from the loop, not the pool";
  EXPECT_EQ(f.router->reroutes(), 0u);
}

TEST(RouterLoopTest, SpanningBatchesAndMultiAppObservationsMatchHandle) {
  ClusterFixture f("loop_fanout", /*shard_count=*/2, /*probe_interval_ms=*/50,
                   nullptr, /*online_shards=*/true);
  // A batch whose slots land on both shards.
  std::vector<size_t> owners;
  std::string batch = R"({"requests":[)";
  for (int i = 0; i < 32 && owners.size() < 6; ++i) {
    const std::string body = SvmBody(12000 + 250 * i);
    const size_t owner = f.router->ring().Owner(RouteKeyOf(body));
    if (std::count(owners.begin(), owners.end(), owner) >= 3) continue;
    batch += (owners.empty() ? "" : ",") + body;
    owners.push_back(owner);
  }
  batch += "]}";
  ASSERT_EQ(owners.size(), 6u) << "keys must span both shards";
  const auto batch_request = MakeRequest("POST", "/v1/recommend", batch);
  ASSERT_EQ(f.http->Handle(batch_request).status, 200);  // Warm every slot.

  HttpClient client(f.StartHttp());
  const auto before = f.router->GetShardStats();
  const auto batched = client.Call("POST", "/v1/recommend", batch);
  ASSERT_EQ(batched.status, 200) << batched.body;
  const auto after = f.router->GetShardStats();
  EXPECT_EQ(after[0].requests - before[0].requests, 3u);
  EXPECT_EQ(after[1].requests - before[1].requests, 3u);
  EXPECT_EQ(batched.body, f.http->Handle(batch_request).body);

  // An observation body for two apps owned by different shards: one
  // kObserve leg each, joined in app order.
  std::vector<std::string> apps(2);
  for (int i = 0; i < 64 && (apps[0].empty() || apps[1].empty()); ++i) {
    const std::string app = "app" + std::to_string(i);
    std::string& slot = apps[f.router->ring().Owner(app)];
    if (slot.empty()) slot = app;
  }
  ASSERT_FALSE(apps[0].empty() || apps[1].empty());
  const std::string observations = ObservationBody(apps, 3);
  const auto observed = client.Call("POST", "/v1/observe", observations);
  ASSERT_EQ(observed.status, 200) << observed.body;
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(f.shards[s]->online->collector().GetStats().ingested, 3u) << s;
    // Drain, so the pool path's reply reports the same buffered counts.
    EXPECT_EQ(f.shards[s]->online->collector().TakeApp(apps[s]).size(), 3u);
  }
  EXPECT_NE(observed.body.find("\"accepted\":3"), std::string::npos)
      << observed.body;
  EXPECT_EQ(observed.body,
            f.http->Handle(MakeRequest("POST", "/v1/observe", observations))
                .body);
  EXPECT_EQ(f.router->reroutes(), 0u);
}

TEST(RouterLoopChaosTest, KillingTheOwnerWithCallsInFlightReroutesThem) {
  ClusterFixture f("loop_kill", /*shard_count=*/2, /*probe_interval_ms=*/50);
  const auto request = MakeRequest("POST", "/v1/recommend", kSvmBody);
  ASSERT_EQ(f.http->Handle(request).status, 200);
  const size_t owner = f.router->GetShardStats()[0].requests > 0 ? 0 : 1;
  const uint16_t port = f.StartHttp();

  constexpr int kClients = 8;
  constexpr int kPerClient = 40;
  std::atomic<int> sent{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      HttpClient client(port);
      for (int i = 0; i < kPerClient; ++i) {
        sent.fetch_add(1);
        const auto reply = client.Call("POST", "/v1/recommend", kSvmBody);
        if (reply.status != 200) failures.fetch_add(1);
      }
    });
  }
  // Kill the owner while every client keeps a call going.
  while (sent.load() < kClients * kPerClient / 4) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  f.shards[owner]->server->Stop();
  for (auto& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0) << "a dead shard must be invisible to clients";
  EXPECT_GE(f.router->reroutes(), 1u);
  const auto stats = f.router->GetShardStats();
  EXPECT_GE(stats[owner].errors, 1u);
  EXPECT_GT(stats[1 - owner].requests, 0u);
}

TEST(RouterLoopChaosTest, HungShardTimesOutAndReroutesWhileTheLoopServes) {
  SilentShard silent;
  // The hung shard joins as index 1. A slow connect timeout holds the
  // prober's first ping to it for 1.5 s, so it still looks healthy and the
  // request tries it first; only the call deadline can get it out.
  ClusterFixture f("loop_hung", /*shard_count=*/1,
                   /*probe_interval_ms=*/5000, [&](Router::Options* options) {
                     options->shards.push_back(silent.address());
                     options->rpc_timeout_ms = 200;
                     options->connect_timeout_ms = 1500;
                   });
  std::string body;
  for (int i = 0; i < 64 && body.empty(); ++i) {
    if (f.router->ring().Owner(RouteKeyOf(SvmBody(12000 + 100 * i))) == 1) {
      body = SvmBody(12000 + 100 * i);
    }
  }
  ASSERT_FALSE(body.empty()) << "no key hashed to the hung shard";
  const uint16_t port = f.StartHttp();

  std::atomic<int> status{0};
  std::atomic<int64_t> elapsed_ms{0};
  std::thread caller([&] {
    HttpClient client(port);
    const auto start = std::chrono::steady_clock::now();
    status.store(client.Call("POST", "/v1/recommend", body).status);
    elapsed_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  {
    // The call is parked on the hung shard; the loop is not.
    HttpClient probe(port);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(probe.Call("GET", "/livez").status, 200);
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count(),
              50);
  }
  caller.join();
  EXPECT_EQ(status.load(), 200) << "rerouted to the live shard";
  EXPECT_GE(elapsed_ms.load(), 190);
  EXPECT_LT(elapsed_ms.load(), 1'500);
  EXPECT_GE(f.router->reroutes(), 1u);
  const auto stats = f.router->GetShardStats();
  EXPECT_GE(stats[1].errors, 1u);
  EXPECT_FALSE(stats[1].healthy);
}

TEST(RouterLoopChaosTest, BatchSlotsOnAHungShardShareOneDeadline) {
  SilentShard silent;
  // As above: the hung shard (index 1) still looks healthy, so its slots are
  // sent to it and only their call deadline gets them out.
  ClusterFixture f("loop_hung_batch", /*shard_count=*/1,
                   /*probe_interval_ms=*/5000, [&](Router::Options* options) {
                     options->shards.push_back(silent.address());
                     options->rpc_timeout_ms = 200;
                     options->connect_timeout_ms = 1500;
                   });
  constexpr size_t kHung = 4;
  constexpr size_t kLive = 2;
  size_t hung = 0;
  size_t live = 0;
  std::string batch = R"({"requests":[)";
  for (int i = 0; i < 128 && (hung < kHung || live < kLive); ++i) {
    const std::string body = SvmBody(12000 + 100 * i);
    const bool on_hung = f.router->ring().Owner(RouteKeyOf(body)) == 1;
    if (on_hung ? hung == kHung : live == kLive) continue;
    batch += (hung + live == 0 ? "" : ",") + body;
    ++(on_hung ? hung : live);
  }
  batch += "]}";
  ASSERT_EQ(hung, kHung);
  ASSERT_EQ(live, kLive);
  HttpClient client(f.StartHttp());

  const auto start = std::chrono::steady_clock::now();
  const auto reply = client.Call("POST", "/v1/recommend", batch);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_EQ(reply.status, 200) << reply.body;
  auto json = net::Json::Parse(reply.body);
  ASSERT_TRUE(json.ok()) << reply.body;
  const auto& results = json->Find("results")->array_items();
  ASSERT_EQ(results.size(), kHung + kLive);
  for (const auto& result : results) {
    EXPECT_NE(result.Find("recommendations"), nullptr) << result.Dump();
  }
  // Every hung slot was in flight at once: they cost one deadline together,
  // not one each.
  EXPECT_GE(elapsed.count(), 190);
  EXPECT_LT(elapsed.count(), 2 * 200 + 200);
  // Each hung slot failed on the hung shard and rerouted; the live slots
  // were answered by their owner on the first attempt.
  EXPECT_EQ(f.router->reroutes(), kHung);
  const auto stats = f.router->GetShardStats();
  EXPECT_EQ(stats[1].errors, kHung);
  EXPECT_EQ(stats[0].errors, 0u);
  EXPECT_EQ(stats[0].requests, kHung + kLive);
}

TEST(RouterLoopChaosTest, OnlyAHungShardFailsAfterTheDeadline) {
  SilentShard silent;
  ClusterFixture f("loop_hung_only", /*shard_count=*/0,
                   /*probe_interval_ms=*/5000, [&](Router::Options* options) {
                     options->shards.push_back(silent.address());
                     options->rpc_timeout_ms = 200;
                     options->connect_timeout_ms = 1500;
                   });
  HttpClient client(f.StartHttp());
  const auto start = std::chrono::steady_clock::now();
  const auto reply = client.Call("POST", "/v1/recommend", kSvmBody);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(reply.status, 503) << reply.body;
  EXPECT_NE(reply.body.find("timed out"), std::string::npos) << reply.body;
  EXPECT_GE(elapsed.count(), 190);
  EXPECT_LT(elapsed.count(), 1'500);
}

// ---------------------------------------------------------------------------
// ShardServer frame protocol (no socket: Handle directly).
// ---------------------------------------------------------------------------

TEST(ShardServerTest, HandlesEveryFrameTypeOfTheProtocol) {
  ClusterFixture f("protocol", /*shard_count=*/1);
  ShardServer& shard = *f.shards[0]->server;

  rpc::RpcFrame recommend;
  recommend.type = rpc::FrameType::kRecommend;
  recommend.payload = kSvmBody;
  const auto reply = shard.Handle(recommend);
  EXPECT_EQ(reply.type, rpc::FrameType::kRecommendReply);
  EXPECT_NE(reply.payload.find("recommendations"), std::string::npos);

  rpc::RpcFrame apps;
  apps.type = rpc::FrameType::kApps;
  const auto apps_reply = shard.Handle(apps);
  EXPECT_EQ(apps_reply.type, rpc::FrameType::kAppsReply);
  EXPECT_NE(apps_reply.payload.find("svm"), std::string::npos);

  rpc::RpcFrame reload;
  reload.type = rpc::FrameType::kReload;
  const auto reload_reply = shard.Handle(reload);
  EXPECT_EQ(reload_reply.type, rpc::FrameType::kReloadReply);

  rpc::RpcFrame bad;
  bad.type = rpc::FrameType::kRecommend;
  bad.payload = "not json";
  const auto bad_reply = shard.Handle(bad);
  EXPECT_EQ(bad_reply.type, rpc::FrameType::kError);
  EXPECT_NE(bad_reply.payload.find("INVALID_ARGUMENT"), std::string::npos);

  rpc::RpcFrame unsupported;
  unsupported.type = rpc::FrameType::kPong;  // Not a request type.
  const auto unsupported_reply = shard.Handle(unsupported);
  EXPECT_EQ(unsupported_reply.type, rpc::FrameType::kError);
}

TEST(ShardServerTest, ResidentRecommendsAreAnsweredOnTheShardLoop) {
  ClusterFixture f("shard_inline", /*shard_count=*/1);
  f.router->Stop();  // No probes: the shard's counters see only this test.
  ShardServer& shard = *f.shards[0]->server;
  rpc::RpcClient::Options options;
  options.port = shard.port();
  rpc::RpcClient client(options);

  const auto start = shard.rpc_stats();
  auto cold = client.Call(rpc::FrameType::kRecommend, kSvmBody);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold->type, rpc::FrameType::kRecommendReply) << cold->payload;
  EXPECT_EQ(shard.rpc_stats().fast_path, start.fast_path)
      << "the first call loads the lazy model: pool path";

  auto warm = client.Call(rpc::FrameType::kRecommend, kSvmBody);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->type, rpc::FrameType::kRecommendReply);
  auto other = client.Call(rpc::FrameType::kRecommend, SvmBody(24000));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->type, rpc::FrameType::kRecommendReply);
  auto bad = client.Call(rpc::FrameType::kRecommend, "not json");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->type, rpc::FrameType::kError);
  EXPECT_EQ(shard.rpc_stats().fast_path, start.fast_path + 3)
      << "a cache hit, a resident evaluation and a validation error are "
         "all answered on the shard's event loop";

  // Same recommendations either way; only cache_hit differs.
  auto cold_json = net::Json::Parse(cold->payload);
  auto warm_json = net::Json::Parse(warm->payload);
  ASSERT_TRUE(cold_json.ok() && warm_json.ok());
  EXPECT_EQ(cold_json->Find("recommendations")->Dump(),
            warm_json->Find("recommendations")->Dump());
  EXPECT_TRUE(warm_json->Find("cache_hit")->bool_value());

  // The inline answer is the pool answer, byte for byte.
  rpc::RpcFrame request;
  request.type = rpc::FrameType::kRecommend;
  request.payload = kSvmBody;
  const auto fast = shard.HandleFast(request);
  ASSERT_TRUE(fast.has_value());
  EXPECT_EQ(fast->payload, shard.Handle(request).payload);
  // Other frames always take the pool.
  rpc::RpcFrame apps;
  apps.type = rpc::FrameType::kApps;
  EXPECT_FALSE(shard.HandleFast(apps).has_value());
}

TEST(ShardServerTest, ObserveFramesAreAnsweredOnTheShardLoop) {
  ClusterFixture f("shard_observe", /*shard_count=*/1,
                   /*probe_interval_ms=*/50, nullptr, /*online_shards=*/true);
  f.router->Stop();  // No probes: the shard's counters see only this test.
  ShardServer& shard = *f.shards[0]->server;
  const online::FeedbackCollector& collector =
      f.shards[0]->online->collector();
  rpc::RpcClient::Options options;
  options.port = shard.port();
  rpc::RpcClient client(options);

  online::Observation obs;
  obs.kind = online::ObservationKind::kRunTime;
  obs.app = "svm";
  obs.target = 1;
  obs.params = minispark::AppParams{12000, 3000, 5};
  obs.value = 812.5;
  const auto start = shard.rpc_stats();
  auto reply = client.Call(rpc::FrameType::kObserve,
                           online::EncodeObservationBatch({obs, obs}));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, rpc::FrameType::kObserveReply) << reply->payload;
  EXPECT_EQ(reply->payload, R"({"accepted":2,"buffered":2})");
  EXPECT_EQ(shard.rpc_stats().fast_path, start.fast_path + 1)
      << "kObserve is ingested on the shard's event loop";
  EXPECT_EQ(collector.GetStats().ingested, 2u);

  // Malformed bytes are the same kError inline, and nothing is kept.
  auto bad = client.Call(rpc::FrameType::kObserve, "JOBSgarbage");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->type, rpc::FrameType::kError);
  EXPECT_EQ(shard.rpc_stats().fast_path, start.fast_path + 2);
  EXPECT_EQ(collector.GetStats().ingested, 2u);

  // Past the inline cap a frame goes to the pool, whatever it holds.
  rpc::RpcFrame large;
  large.type = rpc::FrameType::kObserve;
  large.payload = online::EncodeObservationBatch(
      std::vector<online::Observation>(200, obs));
  ASSERT_GT(large.payload.size(), net::kInlineBodyBytes);
  EXPECT_FALSE(shard.HandleFast(large).has_value());
  EXPECT_EQ(collector.GetStats().ingested, 2u);
  EXPECT_EQ(shard.Handle(large).type, rpc::FrameType::kObserveReply);
  EXPECT_EQ(collector.GetStats().ingested, 202u);
}

}  // namespace
}  // namespace juggler::cluster
