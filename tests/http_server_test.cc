// End-to-end tests for the net subsystem: HttpServer over real loopback
// sockets (both poller backends), and the HttpRecommendServer routes driven
// directly through Handle()/HandleFast()/MetricsText() without a socket.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/juggler.h"
#include "net/http_recommend_server.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/recommend_codec.h"
#include "online/observation.h"
#include "online/online_loop.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"
#include "test_models.h"

namespace juggler::net {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Blocking test client: deliberately simple and synchronous — the other side
// of every conversation is the non-blocking server under test.
// ---------------------------------------------------------------------------

class TestClient {
 public:
  explicit TestClient(uint16_t port) {
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

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      sent += static_cast<size_t>(n);
    }
  }

  /// Reads exactly one HTTP response (headers + Content-Length body) off the
  /// stream, leaving any pipelined follow-up bytes buffered for the next
  /// call. Returns the raw response text; "" on EOF/timeout.
  std::string ReadResponse() {
    while (true) {
      const size_t header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const size_t body_start = header_end + 4;
        const size_t content_length = ParseContentLength(buffer_);
        const size_t total = body_start + content_length;
        if (buffer_.size() >= total) {
          std::string response = buffer_.substr(0, total);
          buffer_.erase(0, total);
          return response;
        }
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Half-closes the connection: no more requests, replies still readable.
  void ShutdownWrite() { ASSERT_EQ(::shutdown(fd_, SHUT_WR), 0); }

  /// Hard-closes the client side immediately (mid-conversation teardown).
  void CloseNow() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  /// True once the server closes the connection (and no buffered bytes
  /// remain).
  bool ReadEof() {
    char chunk[256];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    return n == 0;
  }

 private:
  static size_t ParseContentLength(const std::string& response) {
    const std::string needle = "Content-Length: ";
    const size_t pos = response.find(needle);
    if (pos == std::string::npos) return 0;
    return static_cast<size_t>(
        std::stoul(response.substr(pos + needle.size())));
  }

  int fd_ = -1;
  std::string buffer_;
};

int StatusOf(const std::string& response) {
  // "HTTP/1.1 200 OK\r\n..."
  if (response.size() < 12) return -1;
  return std::stoi(response.substr(9, 3));
}

std::string BodyOf(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

std::string SimpleGet(const std::string& target, bool keep_alive = true) {
  std::string wire = "GET " + target + " HTTP/1.1\r\nHost: t\r\n";
  if (!keep_alive) wire += "Connection: close\r\n";
  wire += "\r\n";
  return wire;
}

HttpServer::Handler EchoHandler() {
  return [](const HttpRequest& request) {
    return HttpResponse::Text(200, request.method + " " + request.Path());
  };
}

// ---------------------------------------------------------------------------
// HttpServer over real sockets, on both poller backends.
// ---------------------------------------------------------------------------

class HttpServerTest : public ::testing::TestWithParam<bool> {
 protected:
  HttpServer::Options BaseOptions() {
    HttpServer::Options options;
    options.force_poll = GetParam();
    options.num_handler_threads = 2;
    return options;
  }
};

TEST_P(HttpServerTest, ServesRequestsOnPoolAndFastPath) {
  std::atomic<int> pool_calls{0};
  HttpServer server(
      BaseOptions(),
      [&](const HttpRequest& request) {
        pool_calls.fetch_add(1);
        return HttpResponse::Text(200, "pool:" + request.Path());
      },
      [](const HttpRequest& request) -> std::optional<HttpResponse> {
        if (request.Path() == "/fast") {
          return HttpResponse::Text(200, "fast");
        }
        return std::nullopt;
      });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.backend(), GetParam() ? "poll" : "epoll");
  EXPECT_GT(server.port(), 0);

  TestClient client(server.port());
  client.Send(SimpleGet("/fast"));
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_EQ(BodyOf(response), "fast");

  client.Send(SimpleGet("/slow"));
  response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_EQ(BodyOf(response), "pool:/slow");
  EXPECT_EQ(pool_calls.load(), 1) << "/fast must not reach the pool";

  const auto stats = server.GetStats();
  EXPECT_EQ(stats.accepted, 1u) << "keep-alive must reuse the connection";
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.fast_path, 1u);
  server.Stop();
}

TEST_P(HttpServerTest, PipelinedRequestsAnswerInOrder) {
  HttpServer server(BaseOptions(), EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  // Both requests in one segment; responses must come back in order even
  // though each takes a round trip through the handler pool.
  client.Send(SimpleGet("/first") + SimpleGet("/second"));
  EXPECT_EQ(BodyOf(client.ReadResponse()), "GET /first");
  EXPECT_EQ(BodyOf(client.ReadResponse()), "GET /second");
  server.Stop();
}

TEST_P(HttpServerTest, HalfClosedClientGetsEveryPipelinedReplyThenEof) {
  HttpServer server(
      BaseOptions(), EchoHandler(),
      [](const HttpRequest& request) -> std::optional<HttpResponse> {
        if (request.Path() == "/fast") return HttpResponse::Text(200, "fast");
        return std::nullopt;
      });
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  // Both requests and the FIN arrive together: the server's first read is
  // short and stops there; the EOF comes on the next wait, after which the
  // connection closes only once both replies are written.
  client.Send(SimpleGet("/fast") + SimpleGet("/slow"));
  client.ShutdownWrite();
  EXPECT_EQ(BodyOf(client.ReadResponse()), "fast");
  EXPECT_EQ(BodyOf(client.ReadResponse()), "GET /slow");
  EXPECT_TRUE(client.ReadEof());
  EXPECT_EQ(server.GetStats().requests, 2u);
  server.Stop();
}

TEST_P(HttpServerTest, ConnectionCloseIsHonored) {
  HttpServer server(BaseOptions(), EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  client.Send(SimpleGet("/bye", /*keep_alive=*/false));
  const std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_TRUE(client.ReadEof());
  server.Stop();
}

TEST_P(HttpServerTest, MalformedRequestGets400ThenClose) {
  HttpServer server(BaseOptions(), EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  client.Send("THIS IS NOT HTTP\r\n\r\n");
  const std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 400);
  EXPECT_TRUE(client.ReadEof()) << "framing is lost; server must close";
  EXPECT_EQ(server.GetStats().parse_errors, 1u);
  server.Stop();
}

TEST_P(HttpServerTest, ClientClosingMidResponseDoesNotKillServer) {
  // Regression test for SIGPIPE: the client tears the connection down while
  // the server is still producing/writing the response. The write must fail
  // with EPIPE (MSG_NOSIGNAL / ignored signal), not deliver a SIGPIPE that
  // kills the process.
  std::mutex mu;
  std::condition_variable cv;
  bool client_gone = false;

  HttpServer server(BaseOptions(), [&](const HttpRequest&) {
    // Hold the response until the client side is definitely closed, then
    // answer with a body too large for one socket buffer so the server
    // really writes into the dead connection.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return client_gone; });
    return HttpResponse::Text(200, std::string(4 << 20, 'x'));
  });
  ASSERT_TRUE(server.Start().ok());

  {
    TestClient doomed(server.port());
    doomed.Send(SimpleGet("/big"));
    doomed.CloseNow();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    client_gone = true;
  }
  cv.notify_all();

  // The server survives and keeps answering fresh connections.
  TestClient follow_up(server.port());
  follow_up.Send(SimpleGet("/alive"));
  const std::string response = follow_up.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200);
  server.Stop();
}

TEST_P(HttpServerTest, FullDispatchQueueYields503WithRetryAfter) {
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool release = false;

  HttpServer::Options options = BaseOptions();
  options.num_handler_threads = 1;
  options.dispatch_queue_capacity = 1;
  HttpServer server(options, [&](const HttpRequest& request) {
    {
      std::unique_lock<std::mutex> lock(mu);
      ++entered;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    return HttpResponse::Text(200, request.Path());
  });
  ASSERT_TRUE(server.Start().ok());

  // First request occupies the single handler thread...
  TestClient busy(server.port());
  busy.Send(SimpleGet("/busy"));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= 1; });
  }
  // ...second parks in the one queue slot (wait until the loop thread has
  // parsed and dispatched it)...
  TestClient queued(server.port());
  queued.Send(SimpleGet("/queued"));
  while (server.GetStats().requests < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...and a third is shed at the edge, immediately, without hanging.
  TestClient shed(server.port());
  shed.Send(SimpleGet("/shed"));
  const std::string rejection = shed.ReadResponse();
  EXPECT_EQ(StatusOf(rejection), 503);
  EXPECT_NE(rejection.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_EQ(server.GetStats().overload_rejected, 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(BodyOf(busy.ReadResponse()), "/busy");
  EXPECT_EQ(BodyOf(queued.ReadResponse()), "/queued");
  server.Stop();
}

TEST_P(HttpServerTest, IdleConnectionsAreSweptAndCounted) {
  HttpServer::Options options = BaseOptions();
  options.idle_timeout_ms = 100;
  HttpServer server(options, EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  TestClient idle(server.port());
  EXPECT_TRUE(idle.ReadEof()) << "sweeper should close the silent connection";
  // The client sees the FIN the instant the loop thread closes the fd, which
  // can be a moment before that thread finishes updating the counters — poll
  // briefly instead of asserting instantly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.GetStats().active != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.GetStats().idle_closed, 1u);
  EXPECT_EQ(server.GetStats().active, 0u);
  server.Stop();
}

TEST_P(HttpServerTest, StopClosesOpenConnectionsAndIsIdempotent) {
  auto server = std::make_unique<HttpServer>(BaseOptions(), EchoHandler());
  ASSERT_TRUE(server->Start().ok());
  EXPECT_EQ(server->Start().code(), StatusCode::kFailedPrecondition);

  TestClient client(server->port());
  client.Send(SimpleGet("/ok"));
  EXPECT_EQ(StatusOf(client.ReadResponse()), 200);

  server->Stop();
  server->Stop();  // Idempotent.
  EXPECT_TRUE(client.ReadEof());
  server.reset();
}

TEST_P(HttpServerTest, StalledHeaderReadGets408AndClosed) {
  HttpServer::Options options = BaseOptions();
  options.header_read_timeout_ms = 100;
  HttpServer server(options, EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  // A slowloris: the request never completes — headers arrive but the
  // terminating blank line does not. The idle sweeper alone would keep this
  // alive (bytes did arrive); the header-read deadline must not.
  TestClient slow(server.port());
  slow.Send("GET /partial HTTP/1.1\r\nHost: t\r\nX-Stall: yes\r\n");
  const std::string response = slow.ReadResponse();
  EXPECT_EQ(StatusOf(response), 408);
  EXPECT_TRUE(slow.ReadEof()) << "408 must be followed by a close";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.GetStats().slow_read_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.GetStats().slow_read_closed, 1u);

  // A complete request on a fresh connection is unaffected.
  TestClient fine(server.port());
  fine.Send(SimpleGet("/ok"));
  EXPECT_EQ(StatusOf(fine.ReadResponse()), 200);
  server.Stop();
}

TEST_P(HttpServerTest, ClientNotDrainingResponseIsClosed) {
  HttpServer::Options options = BaseOptions();
  options.write_timeout_ms = 150;
  HttpServer server(options, [](const HttpRequest&) {
    // Far more than the kernel socket buffers absorb, so the server's write
    // buffer stays non-empty while the client refuses to read.
    return HttpResponse::Text(200, std::string(32 << 20, 'x'));
  });
  ASSERT_TRUE(server.Start().ok());

  TestClient stalled(server.port());
  stalled.Send(SimpleGet("/big"));
  // Never read. The write deadline must reap the connection instead of
  // letting the response bytes sit queued forever.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.GetStats().slow_write_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.GetStats().slow_write_closed, 1u);
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(Backends, HttpServerTest, ::testing::Bool(),
                         [](const auto& param_info) {
                           return param_info.param ? "poll" : "epoll";
                         });

// ---------------------------------------------------------------------------
// HttpRecommendServer routes (no sockets: Handle/HandleFast/MetricsText).
// ---------------------------------------------------------------------------

/// One small svm model, trained once for the whole suite (training dominates
/// test runtime; the routes under test only read it).
const core::TrainedJuggler& SvmModel() {
  static const auto* const model =
      new core::TrainedJuggler(test::TrainSmall("svm"));
  return *model;
}

/// A second app, for tests that spread traffic over more than one model.
const core::TrainedJuggler& LirModel() {
  static const auto* const model =
      new core::TrainedJuggler(test::TrainSmall("lir"));
  return *model;
}

struct RecommendFixture {
  fs::path dir;
  std::shared_ptr<service::ModelRegistry> registry;
  std::shared_ptr<service::RecommendationService> service;
  std::shared_ptr<online::OnlineJuggler> online;
  std::unique_ptr<HttpRecommendServer> server;

  explicit RecommendFixture(const std::string& test_name,
                            bool with_online = false,
                            service::ModelRegistry::Options registry_options =
                                service::ModelRegistry::Options{}) {
    dir = test::MakeModelDir("http", test_name);
    test::SaveModel(SvmModel(), dir / "svm.model");
    registry = std::make_shared<service::ModelRegistry>(dir.string(),
                                                        registry_options);
    EXPECT_TRUE(registry->Refresh().ok());
    service = std::make_shared<service::RecommendationService>(
        registry, service::RecommendationService::Options{});
    HttpRecommendServer::Options options;
    if (with_online) {
      // Background thread deliberately not started: these tests exercise the
      // ingest edge, not the refit loop (tests/online_test.cc covers that).
      online = std::make_shared<online::OnlineJuggler>(
          registry, service, online::OnlineJuggler::Options{});
      options.online = online;
    }
    server = std::make_unique<HttpRecommendServer>(registry, service, options);
  }
};

HttpRequest MakeRequest(const std::string& method, const std::string& target,
                        const std::string& body = "") {
  HttpRequest request;
  request.method = method;
  request.target = target;
  request.version = "HTTP/1.1";
  request.body = body;
  return request;
}

constexpr char kSvmBody[] =
    R"({"app":"svm","params":{"examples":12000,"features":3000,)"
    R"("iterations":5}})";

TEST(HttpRecommendServerTest, HealthzIsAnsweredOnTheFastPath) {
  RecommendFixture f("healthz");
  const auto fast = f.server->HandleFast(MakeRequest("GET", "/healthz"));
  ASSERT_TRUE(fast.has_value());
  EXPECT_EQ(fast->status, 200);
  EXPECT_EQ(fast->body, "ok\n");
  // The pool path answers it too (e.g. if the fast handler is disabled).
  EXPECT_EQ(f.server->Handle(MakeRequest("GET", "/healthz")).status, 200);
}

TEST(HttpRecommendServerTest, LivezStaysUpWhileReadyzDrains) {
  RecommendFixture f("probes");
  // Healthy: both probes green, on the fast path and the pool path.
  EXPECT_TRUE(f.server->Ready());
  EXPECT_EQ(f.server->Handle(MakeRequest("GET", "/livez")).status, 200);
  EXPECT_EQ(f.server->Handle(MakeRequest("GET", "/readyz")).status, 200);
  ASSERT_TRUE(f.server->HandleFast(MakeRequest("GET", "/readyz")).has_value());

  // Draining: liveness holds (don't restart a healthy process), readiness
  // flips to a clean 503 + Retry-After so balancers stop routing here.
  f.server->SetDraining(true);
  EXPECT_FALSE(f.server->Ready());
  EXPECT_EQ(f.server->Handle(MakeRequest("GET", "/livez")).status, 200);
  const HttpResponse not_ready =
      f.server->Handle(MakeRequest("GET", "/readyz"));
  EXPECT_EQ(not_ready.status, 503);
  bool has_retry_after = false;
  for (const auto& [name, value] : not_ready.headers) {
    if (name == "Retry-After") has_retry_after = true;
  }
  EXPECT_TRUE(has_retry_after);
  EXPECT_EQ(not_ready.body, "draining\n");
  // The legacy probe aliases readiness, so existing checks keep working.
  EXPECT_EQ(f.server->Handle(MakeRequest("GET", "/healthz")).status, 503);
  // In-flight work still completes while draining.
  EXPECT_EQ(
      f.server->Handle(MakeRequest("POST", "/v1/recommend", kSvmBody)).status,
      200);

  // The state is visible in /metrics for the soak monitor.
  const std::string metrics =
      f.server->Handle(MakeRequest("GET", "/metrics")).body;
  EXPECT_NE(metrics.find("juggler_ready 0\n"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("juggler_draining 1\n"), std::string::npos);

  f.server->SetDraining(false);
  EXPECT_EQ(f.server->Handle(MakeRequest("GET", "/readyz")).status, 200);
  EXPECT_EQ(f.server->Handle(MakeRequest("GET", "/healthz")).status, 200);
}

TEST(HttpRecommendServerTest, RecommendColdAndWarmSinglesAnsweredInline) {
  RecommendFixture f("warm_path");
  const auto request = MakeRequest("POST", "/v1/recommend", kSvmBody);

  // Cold key, resident model: the event loop evaluates it inline (about a
  // microsecond) and fills the cache — no handler-pool hop.
  const auto cold = f.server->HandleFast(request);
  ASSERT_TRUE(cold.has_value());
  ASSERT_EQ(cold->status, 200) << cold->body;
  auto cold_json = Json::Parse(cold->body);
  ASSERT_TRUE(cold_json.ok());
  EXPECT_EQ(cold_json->StringOr("app", ""), "svm");
  EXPECT_FALSE(cold_json->Find("cache_hit")->bool_value());
  EXPECT_EQ(cold_json->NumberOr("model_version", 0), 1);
  EXPECT_FALSE(cold_json->Find("recommendations")->array_items().empty());

  // Warm key: answered inline, identical recommendations, cache_hit flag on.
  const auto warm = f.server->HandleFast(request);
  ASSERT_TRUE(warm.has_value());
  ASSERT_EQ(warm->status, 200);
  auto warm_json = Json::Parse(warm->body);
  ASSERT_TRUE(warm_json.ok());
  EXPECT_TRUE(warm_json->Find("cache_hit")->bool_value());
  EXPECT_EQ(warm_json->Find("recommendations")->Dump(),
            cold_json->Find("recommendations")->Dump());

  const auto stats = f.service->GetStats();
  EXPECT_EQ(stats.evaluations, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
}

TEST(HttpRecommendServerTest, FastPathNeverLoadsALazyModel) {
  service::ModelRegistry::Options lazy;
  lazy.lazy_load = true;
  RecommendFixture f("lazy_fast_path", /*with_online=*/false, lazy);

  // Not resident: loading would parse the artifact on the event loop, so the
  // fast path declines and nothing is loaded or counted.
  const auto request = MakeRequest("POST", "/v1/recommend", kSvmBody);
  EXPECT_FALSE(f.server->HandleFast(request).has_value());
  EXPECT_EQ(f.registry->loaded_models(), 0u);
  EXPECT_TRUE(f.service->GetStats().per_app.empty());

  // The pool path loads it...
  ASSERT_EQ(f.server->Handle(request).status, 200);
  EXPECT_EQ(f.registry->loaded_models(), 1u);

  // ...after which a new cold question is evaluated inline.
  const auto next = f.server->HandleFast(MakeRequest(
      "POST", "/v1/recommend",
      R"({"app":"svm","params":{"examples":24000,"features":6000}})"));
  ASSERT_TRUE(next.has_value());
  ASSERT_EQ(next->status, 200) << next->body;
  auto json = Json::Parse(next->body);
  ASSERT_TRUE(json.ok());
  EXPECT_FALSE(json->Find("cache_hit")->bool_value());
  EXPECT_EQ(f.service->GetStats().evaluations, 2u);
}

TEST(HttpRecommendServerTest, RejectsBadInputsWithStructuredErrors) {
  RecommendFixture f("bad_inputs");
  const auto error_code = [&](const std::string& body) {
    const HttpResponse response =
        f.server->Handle(MakeRequest("POST", "/v1/recommend", body));
    auto json = Json::Parse(response.body);
    EXPECT_TRUE(json.ok()) << response.body;
    return std::to_string(response.status) + " " +
           json->Find("error")->StringOr("code", "?");
  };
  EXPECT_EQ(error_code("not json"), "400 INVALID_ARGUMENT");
  EXPECT_EQ(error_code("{}"), "400 INVALID_ARGUMENT");
  EXPECT_EQ(error_code(R"({"app":"svm","params":{"examples":-1,)"
                       R"("features":10}})"),
            "400 INVALID_ARGUMENT");
  EXPECT_EQ(error_code(R"({"app":"nope","params":{"examples":100,)"
                       R"("features":10}})"),
            "404 NOT_FOUND");

  // A parse error never reaches the handler pool: the fast path answers it.
  const auto fast =
      f.server->HandleFast(MakeRequest("POST", "/v1/recommend", "not json"));
  ASSERT_TRUE(fast.has_value());
  EXPECT_EQ(fast->status, 400);
}

TEST(HttpRecommendServerTest, BatchReportsServiceErrorsPerSlot) {
  RecommendFixture f("batch");
  const std::string body = std::string(R"({"requests":[)") + kSvmBody +
                           R"(,{"app":"nope","params":)"
                           R"({"examples":100,"features":10}}]})";
  const HttpResponse response =
      f.server->Handle(MakeRequest("POST", "/v1/recommend", body));
  ASSERT_EQ(response.status, 200) << response.body;
  auto json = Json::Parse(response.body);
  ASSERT_TRUE(json.ok());
  const auto& results = json->Find("results")->array_items();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].StringOr("app", ""), "svm");
  EXPECT_EQ(results[1].Find("error")->StringOr("code", ""), "NOT_FOUND");

  // A malformed element, by contrast, fails the whole request.
  const HttpResponse malformed = f.server->Handle(MakeRequest(
      "POST", "/v1/recommend", R"({"requests":[{"app":"svm"}]})"));
  EXPECT_EQ(malformed.status, 400);
  EXPECT_NE(malformed.body.find("requests[0]"), std::string::npos);

  // Resident batches are answered inline on the event loop, with the bytes
  // the pool path returns (both warm here: cache_hit is part of the bytes).
  const auto fast =
      f.server->HandleFast(MakeRequest("POST", "/v1/recommend", body));
  ASSERT_TRUE(fast.has_value());
  EXPECT_EQ(fast->status, 200);
  EXPECT_EQ(fast->body,
            f.server->Handle(MakeRequest("POST", "/v1/recommend", body)).body);
  // The all-or-nothing 400 is the same inline too.
  const auto fast_malformed = f.server->HandleFast(MakeRequest(
      "POST", "/v1/recommend", R"({"requests":[{"app":"svm"}]})"));
  ASSERT_TRUE(fast_malformed.has_value());
  EXPECT_EQ(fast_malformed->status, 400);
  EXPECT_EQ(fast_malformed->body, malformed.body);
}

TEST(HttpRecommendServerTest, InlineRuleIsTheBodySizeCap) {
  RecommendFixture f("inline_cap", /*with_online=*/true);
  // Whitespace pads a body to an exact size without changing what it asks.
  const auto padded = [](std::string body, size_t size) {
    body.append(size - body.size(), ' ');
    return body;
  };
  const std::string batch = std::string(R"({"requests":[)") + kSvmBody + "," +
                            kSvmBody + "]}";
  for (const std::string& body : {std::string(kSvmBody), batch}) {
    const auto at_cap = MakeRequest("POST", "/v1/recommend",
                                    padded(body, kInlineBodyBytes));
    const auto over_cap = MakeRequest("POST", "/v1/recommend",
                                      padded(body, kInlineBodyBytes + 1));
    ASSERT_EQ(f.server->Handle(at_cap).status, 200);  // Warm the key.
    const auto inline_answer = f.server->HandleFast(at_cap);
    ASSERT_TRUE(inline_answer.has_value()) << "a body at the cap is inline";
    EXPECT_EQ(inline_answer->body, f.server->Handle(at_cap).body);
    EXPECT_FALSE(f.server->HandleFast(over_cap).has_value())
        << "one byte over the cap goes to the pool";
    EXPECT_EQ(f.server->Handle(over_cap).body, inline_answer->body);
  }
  // The rule comes before any parse: an oversized garbage body is not a
  // loop-thread 400, and an oversized observation is not ingested inline.
  EXPECT_FALSE(f.server
                   ->HandleFast(MakeRequest("POST", "/v1/recommend",
                                            padded("not json",
                                                   kInlineBodyBytes + 1)))
                   .has_value());
  EXPECT_FALSE(
      f.server
          ->HandleFast(MakeRequest("POST", "/v1/observe",
                                   padded("[]", kInlineBodyBytes + 1)))
          .has_value());
  EXPECT_EQ(f.online->collector().GetStats().ingested, 0u);
}

TEST(HttpRecommendServerTest, BatchWithALazySlotDeclinesTheFastPath) {
  service::ModelRegistry::Options lazy;
  lazy.lazy_load = true;
  RecommendFixture f("lazy_batch", /*with_online=*/false, lazy);
  const auto request = MakeRequest(
      "POST", "/v1/recommend",
      std::string(R"({"requests":[)") + kSvmBody +
          R"(,{"app":"nope","params":{"examples":100,"features":10}}]})");

  // One slot's model is not resident: the whole batch goes to the pool,
  // with nothing loaded, evaluated or counted on the loop.
  EXPECT_FALSE(f.server->HandleFast(request).has_value());
  EXPECT_EQ(f.registry->loaded_models(), 0u);
  const auto stats = f.service->GetStats();
  EXPECT_TRUE(stats.per_app.empty());
  EXPECT_EQ(stats.evaluations, 0u);
  EXPECT_EQ(stats.cache.misses, 0u);

  // The pool loads it; from then on the batch is answered inline.
  ASSERT_EQ(f.server->Handle(request).status, 200);
  EXPECT_EQ(f.registry->loaded_models(), 1u);
  const auto fast = f.server->HandleFast(request);
  ASSERT_TRUE(fast.has_value());
  EXPECT_EQ(fast->body, f.server->Handle(request).body);
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

TEST(HttpRecommendServerTest, ConcurrentClientsGetTheBytesHandleReturns) {
  RecommendFixture f("concurrent_clients");
  test::SaveModel(LirModel(), f.dir / "lir.model");
  ASSERT_TRUE(f.registry->Refresh().ok());
  ASSERT_EQ(f.registry->size(), 2u);
  const auto body_for = [](const std::string& app, int examples) {
    return R"({"app":")" + app + R"(","params":{"examples":)" +
           std::to_string(examples) + R"(,"features":3000,"iterations":5}})";
  };

  // Warm singles (answered once up front), and two batches over both apps:
  // one under the inline cap, and one padded past it, which takes the pool.
  std::vector<std::string> warm;
  for (const char* app : {"svm", "lir"}) {
    for (int i = 0; i < 3; ++i) {
      warm.push_back(body_for(app, 12000 + 1000 * i));
    }
  }
  for (const std::string& body : warm) {
    ASSERT_EQ(f.server->Handle(MakeRequest("POST", "/v1/recommend", body))
                  .status,
              200);
  }
  const std::string batch = R"({"requests":[)" + warm[0] + "," + warm[3] +
                            "," + body_for("svm", 50000) + "," +
                            body_for("lir", 50000) + "]}";
  ASSERT_LE(batch.size(), kInlineBodyBytes);
  std::string pooled_batch = batch;
  pooled_batch.append(kInlineBodyBytes + 1 - batch.size(), ' ');

  ASSERT_TRUE(f.server->Start().ok());
  const auto before = f.server->http_stats();
  constexpr int kClients = 8;
  constexpr int kPerClient = 50;
  std::atomic<int> pooled{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(f.server->port());
      for (int i = 0; i < kPerClient; ++i) {
        std::string body;
        switch (i % 5) {
          case 0:  // Cold: first seen here, evaluated on the loop.
            body = body_for(i % 2 == 0 ? "svm" : "lir",
                            60000 + 100 * (c * kPerClient + i));
            break;
          case 1:
          case 2:
            body = warm[static_cast<size_t>(c + i) % warm.size()];
            break;
          case 3:
            body = batch;
            break;
          default:
            body = pooled_batch;
            pooled.fetch_add(1);
            break;
        }
        client.Send("POST /v1/recommend HTTP/1.1\r\nHost: t\r\n"
                    "Content-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body);
        const std::string reply = client.ReadResponse();
        const HttpResponse expected =
            f.server->Handle(MakeRequest("POST", "/v1/recommend", body));
        if (StatusOf(reply) != 200 || expected.status != 200 ||
            NormaliseCacheHit(BodyOf(reply)) !=
                NormaliseCacheHit(expected.body)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);

  constexpr uint64_t kTotal = kClients * kPerClient;
  const auto after = f.server->http_stats();
  EXPECT_EQ(after.requests - before.requests, kTotal);
  EXPECT_EQ(after.fast_path - before.fast_path,
            kTotal - static_cast<uint64_t>(pooled.load()))
      << "only the padded batches take the pool";
  EXPECT_EQ(after.overload_rejected, before.overload_rejected);
  f.server->Stop();
}

TEST(HttpRecommendServerTest, AppsAndReloadRoutes) {
  RecommendFixture f("apps_reload");
  const HttpResponse apps = f.server->Handle(MakeRequest("GET", "/v1/apps"));
  ASSERT_EQ(apps.status, 200);
  auto apps_json = Json::Parse(apps.body);
  ASSERT_TRUE(apps_json.ok());
  EXPECT_EQ(apps_json->NumberOr("version", 0), 1);
  ASSERT_EQ(apps_json->Find("apps")->array_items().size(), 1u);
  EXPECT_EQ(apps_json->Find("apps")->array_items()[0].string_value(), "svm");

  // Reload with nothing changed: everything reused, version stays put.
  const HttpResponse reload =
      f.server->Handle(MakeRequest("POST", "/v1/reload"));
  ASSERT_EQ(reload.status, 200);
  auto reload_json = Json::Parse(reload.body);
  ASSERT_TRUE(reload_json.ok());
  EXPECT_EQ(reload_json->NumberOr("version", 0), 1);
  const Json* refresh = reload_json->Find("refresh");
  ASSERT_NE(refresh, nullptr);
  EXPECT_EQ(refresh->NumberOr("scanned", -1), 1);
  EXPECT_EQ(refresh->NumberOr("parsed", -1), 0);
  EXPECT_EQ(refresh->NumberOr("reused", -1), 1);
}

TEST(HttpRecommendServerTest, RoutesRejectWrongMethodsAndUnknownPaths) {
  RecommendFixture f("routing");
  const HttpResponse wrong_method =
      f.server->Handle(MakeRequest("GET", "/v1/recommend"));
  EXPECT_EQ(wrong_method.status, 405);
  bool has_allow = false;
  for (const auto& [name, value] : wrong_method.headers) {
    if (name == "Allow") {
      has_allow = true;
      EXPECT_EQ(value, "POST");
    }
  }
  EXPECT_TRUE(has_allow);
  EXPECT_EQ(f.server->Handle(MakeRequest("POST", "/metrics")).status, 405);
  EXPECT_EQ(f.server->Handle(MakeRequest("GET", "/nope")).status, 404);
  // Unknown paths fall through the fast path to the pool.
  EXPECT_FALSE(f.server->HandleFast(MakeRequest("GET", "/nope")).has_value());
}

TEST(HttpRecommendServerTest, MetricsExposePerAppSeries) {
  RecommendFixture f("metrics");
  const auto request = MakeRequest("POST", "/v1/recommend", kSvmBody);
  ASSERT_EQ(f.server->Handle(request).status, 200);  // Miss + evaluation.
  ASSERT_EQ(f.server->Handle(request).status, 200);  // Cache hit.

  const HttpResponse response =
      f.server->Handle(MakeRequest("GET", "/metrics"));
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/plain; version=0.0.4; charset=utf-8");
  const std::string& text = response.body;
  EXPECT_NE(text.find("juggler_requests_total{app=\"svm\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("juggler_cache_hits_total{app=\"svm\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("juggler_cache_misses_total{app=\"svm\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("juggler_evaluations_total{app=\"svm\"} 1\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("juggler_request_latency_us{app=\"svm\",quantile=\"0.5\"}"),
      std::string::npos);
  EXPECT_NE(text.find("juggler_request_latency_us_count{app=\"svm\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("juggler_registry_version 1\n"), std::string::npos);
  EXPECT_NE(text.find("juggler_registry_models 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE juggler_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE juggler_prediction_cache_size gauge\n"),
            std::string::npos);
  // Lock-pressure series from common/lock_diag.h: the service stack's named
  // mutexes (registry, cache shards, thread pool) report acquisitions and
  // hold time per lock class.
  EXPECT_NE(text.find("juggler_lock_acquisitions_total{lock="
                      "\"service.ModelRegistry.mu\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("juggler_lock_acquisitions_total{lock="
                      "\"service.PredictionCache.shard\"}"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE juggler_lock_hold_seconds_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE juggler_lock_contended_total counter\n"),
            std::string::npos);
  // The online-adaptation series are always exported (zeros when --online is
  // off), so dashboards can pre-provision panels before the flag flips.
  EXPECT_NE(text.find("juggler_online_active"), std::string::npos);
  EXPECT_NE(text.find("juggler_online_model_version"), std::string::npos);
}

// ---------------------------------------------------------------------------
// /v1/observe: the online-adaptation ingest edge.
// ---------------------------------------------------------------------------

constexpr char kObservationJson[] =
    R"([{"kind":"run_time","app":"svm","target":1,)"
    R"("params":{"examples":12000,"features":3000,"iterations":5},)"
    R"("value":800.0}])";

TEST(HttpRecommendServerTest, ObserveWithoutOnlineLoopIsUnavailable) {
  RecommendFixture f("observe_off");
  const HttpResponse response =
      f.server->Handle(MakeRequest("POST", "/v1/observe", kObservationJson));
  EXPECT_EQ(response.status, 503);
  auto json = Json::Parse(response.body);
  ASSERT_TRUE(json.ok()) << response.body;
  EXPECT_EQ(json->Find("error")->StringOr("code", ""), "FAILED_PRECONDITION");
  EXPECT_NE(json->Find("error")->StringOr("message", "").find("--online"),
            std::string::npos);
}

TEST(HttpRecommendServerTest, ObserveIngestsJsonBodies) {
  RecommendFixture f("observe_json", /*with_online=*/true);
  const HttpResponse response =
      f.server->Handle(MakeRequest("POST", "/v1/observe", kObservationJson));
  ASSERT_EQ(response.status, 200) << response.body;
  auto json = Json::Parse(response.body);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->NumberOr("ingested", -1), 1);
  EXPECT_EQ(json->NumberOr("dropped", -1), 0);
  EXPECT_EQ(json->NumberOr("buffered", -1), 1);
  // Observation ingest is answered inline on the event loop too: the same
  // decoder, the same collector.
  const auto fast =
      f.server->HandleFast(MakeRequest("POST", "/v1/observe", kObservationJson));
  ASSERT_TRUE(fast.has_value());
  ASSERT_EQ(fast->status, 200) << fast->body;
  auto fast_json = Json::Parse(fast->body);
  ASSERT_TRUE(fast_json.ok());
  EXPECT_EQ(fast_json->NumberOr("ingested", -1), 2);
  EXPECT_EQ(fast_json->NumberOr("buffered", -1), 2);
  EXPECT_EQ(f.online->collector().GetStats().ingested, 2u);
  // A malformed body is the same 400 inline as on the pool.
  const auto fast_bad =
      f.server->HandleFast(MakeRequest("POST", "/v1/observe", "not json"));
  ASSERT_TRUE(fast_bad.has_value());
  EXPECT_EQ(fast_bad->status, 400);
  EXPECT_EQ(fast_bad->body,
            f.server->Handle(MakeRequest("POST", "/v1/observe", "not json"))
                .body);
  EXPECT_EQ(f.online->collector().GetStats().ingested, 2u);
}

TEST(HttpRecommendServerTest, ObserveIngestsBinaryBodies) {
  RecommendFixture f("observe_binary", /*with_online=*/true);
  online::Observation obs;
  obs.kind = online::ObservationKind::kRunTime;
  obs.app = "svm";
  obs.target = 1;
  obs.params = minispark::AppParams{12000, 3000, 5};
  obs.value = 812.5;
  const std::string body = online::EncodeObservationBatch({obs, obs});
  const HttpResponse response =
      f.server->Handle(MakeRequest("POST", "/v1/observe", body));
  ASSERT_EQ(response.status, 200) << response.body;
  auto json = Json::Parse(response.body);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->NumberOr("ingested", -1), 2);
  EXPECT_EQ(json->NumberOr("buffered", -1), 2);
}

TEST(HttpRecommendServerTest, ObserveRejectsMalformedBodies) {
  RecommendFixture f("observe_bad", /*with_online=*/true);
  const auto status_of = [&](const std::string& body) {
    return f.server->Handle(MakeRequest("POST", "/v1/observe", body)).status;
  };
  EXPECT_EQ(status_of(""), 400);
  EXPECT_EQ(status_of("not json"), 400);
  // A JSON object (not an array) and an array with a bad element both fail.
  EXPECT_EQ(status_of(R"({"kind":"run_time"})"), 400);
  EXPECT_EQ(status_of(R"([{"kind":"nope","app":"svm","target":1,)"
                      R"("params":{"examples":1,"features":1},"value":1}])"),
            400);
  // Binary magic followed by garbage crosses into the wire decoder and is
  // rejected there.
  EXPECT_EQ(status_of("JOBSgarbage"), 400);
  // Nothing malformed ever reaches the buffer.
  EXPECT_EQ(f.online->collector().GetStats().ingested, 0u);
  EXPECT_EQ(f.server->Handle(MakeRequest("GET", "/v1/observe")).status, 405);
}

// Regression test for an analyze-narrowing finding: ParseObservationsJson
// used to `static_cast<int>` / `static_cast<uint64_t>` the raw JSON doubles
// for target/model_version/iterations. A body like `"target":1e30` reached
// an out-of-range float-to-int conversion — undefined behavior (UBSan
// float-cast-overflow) — before any range validation ran. The fields now go
// through the checked conversions in common/parse.h and reject with 400.
TEST(HttpRecommendServerTest, ObserveRejectsOutOfRangeNumericFields) {
  RecommendFixture f("observe_range", /*with_online=*/true);
  const auto status_of = [&](const std::string& body) {
    return f.server->Handle(MakeRequest("POST", "/v1/observe", body)).status;
  };
  const auto obs = [](const std::string& target, const std::string& version,
                      const std::string& iterations) {
    return std::string(R"([{"kind":"run_time","app":"svm","target":)") +
           target + R"(,"model_version":)" + version +
           R"(,"params":{"examples":12000,"features":3000,"iterations":)" +
           iterations + R"(},"value":800.0}])";
  };
  // target must fit int32.
  EXPECT_EQ(status_of(obs("1e30", "0", "5")), 400);
  EXPECT_EQ(status_of(obs("-1e30", "0", "5")), 400);
  EXPECT_EQ(status_of(obs("2147483648", "0", "5")), 400);
  // model_version must be a non-negative integer below 2^64.
  EXPECT_EQ(status_of(obs("1", "-1", "5")), 400);
  EXPECT_EQ(status_of(obs("1", "1e30", "5")), 400);
  // iterations must be a non-negative int32.
  EXPECT_EQ(status_of(obs("1", "0", "1e30")), 400);
  EXPECT_EQ(status_of(obs("1", "0", "-3")), 400);
  // Nothing out of range ever reaches the buffer.
  EXPECT_EQ(f.online->collector().GetStats().ingested, 0u);
  // The extremes of the valid ranges still ingest.
  EXPECT_EQ(status_of(obs("2147483647", "9007199254740992", "0")), 200);
  EXPECT_EQ(status_of(obs("-2147483648", "0", "5")), 200);
  EXPECT_EQ(f.online->collector().GetStats().ingested, 2u);
}

// ---------------------------------------------------------------------------
// /v1/recommend with multi-objective weights.
// ---------------------------------------------------------------------------

TEST(HttpRecommendServerTest, RecommendAcceptsObjectiveWeights) {
  RecommendFixture f("objective");
  const std::string body =
      R"({"app":"svm","params":{"examples":12000,"features":3000,)"
      R"("iterations":5},"objective":{"p99_latency":1.0,"cost":0.2}})";
  const HttpResponse response =
      f.server->Handle(MakeRequest("POST", "/v1/recommend", body));
  ASSERT_EQ(response.status, 200) << response.body;
  auto json = Json::Parse(response.body);
  ASSERT_TRUE(json.ok());
  const auto& items = json->Find("recommendations")->array_items();
  ASSERT_FALSE(items.empty());
  // Scores are the sort key: present on every item and ascending.
  double previous = -1.0;
  for (const Json& item : items) {
    const Json* score = item.Find("objective_score");
    ASSERT_NE(score, nullptr);
    EXPECT_GE(score->number_value(), previous);
    previous = score->number_value();
  }

  // A weighted request is a different cache key than the classic one: the
  // classic body must still evaluate fresh, not alias the weighted entry.
  const HttpResponse classic =
      f.server->Handle(MakeRequest("POST", "/v1/recommend", kSvmBody));
  ASSERT_EQ(classic.status, 200);
  auto classic_json = Json::Parse(classic.body);
  ASSERT_TRUE(classic_json.ok());
  EXPECT_FALSE(classic_json->Find("cache_hit")->bool_value());
}

TEST(HttpRecommendServerTest, RecommendRejectsInvalidObjectives) {
  RecommendFixture f("objective_bad");
  const auto error_of = [&](const std::string& objective) {
    const std::string body =
        R"({"app":"svm","params":{"examples":12000,"features":3000,)"
        R"("iterations":5},"objective":)" +
        objective + "}";
    const HttpResponse response =
        f.server->Handle(MakeRequest("POST", "/v1/recommend", body));
    auto json = Json::Parse(response.body);
    EXPECT_TRUE(json.ok()) << response.body;
    return std::to_string(response.status) + " " +
           json->Find("error")->StringOr("code", "?");
  };
  // Not an object, non-number weight, negative weight, and the all-zero
  // degenerate ("optimize nothing") are all parse-time 400s.
  EXPECT_EQ(error_of("[1,2,3]"), "400 INVALID_ARGUMENT");
  EXPECT_EQ(error_of(R"({"cost":"high"})"), "400 INVALID_ARGUMENT");
  EXPECT_EQ(error_of(R"({"cost":-1.0})"), "400 INVALID_ARGUMENT");
  EXPECT_EQ(error_of("{}"), "400 INVALID_ARGUMENT");
}

// ---------------------------------------------------------------------------
// Response bytes: the direct writer against golden text and the DOM builder
// it replaced.
// ---------------------------------------------------------------------------

/// The DOM builder ResponseJson() used to be, kept as the byte-for-byte
/// reference for the direct writer.
Json ReferenceResponseJson(const std::string& app,
                           const service::RecommendResponse& response) {
  Json recommendations = Json::Arr();
  for (const core::Recommendation& r : *response.recommendations) {
    Json item = Json::Obj();
    item.Set("schedule_id", Json::Number(r.schedule_id))
        .Set("plan", Json::Str(r.plan.ToString()))
        .Set("predicted_bytes", Json::Number(r.predicted_bytes))
        .Set("machines", Json::Number(r.machines))
        .Set("predicted_time_ms", Json::Number(r.predicted_time_ms))
        .Set("predicted_cost_machine_min",
             Json::Number(r.predicted_cost_machine_min))
        .Set("objective_score", Json::Number(r.objective_score));
    recommendations.Append(std::move(item));
  }
  Json out = Json::Obj();
  out.Set("app", Json::Str(app))
      .Set("cache_hit", Json::Bool(response.cache_hit))
      .Set("model_version",
           Json::Number(static_cast<double>(response.model_version)))
      .Set("recommendations", std::move(recommendations));
  return out;
}

core::Recommendation MakeRecommendation(int schedule_id,
                                        const std::string& plan,
                                        double predicted_bytes, int machines,
                                        double time_ms, double cost,
                                        double score) {
  core::Recommendation r;
  r.schedule_id = schedule_id;
  r.plan = minispark::CachePlan::Parse(plan).value();
  r.predicted_bytes = predicted_bytes;
  r.machines = machines;
  r.predicted_time_ms = time_ms;
  r.predicted_cost_machine_min = cost;
  r.objective_score = score;
  return r;
}

service::RecommendResponse MakeResponse(
    std::vector<core::Recommendation> recommendations, bool cache_hit,
    uint64_t model_version) {
  service::RecommendResponse response;
  response.recommendations =
      std::make_shared<const std::vector<core::Recommendation>>(
          std::move(recommendations));
  response.cache_hit = cache_hit;
  response.model_version = model_version;
  return response;
}

TEST(ResponseBytesTest, SinglesMatchGoldenText) {
  // cache_hit false, the empty plan, integral doubles without a fraction.
  EXPECT_EQ(
      ResponseJson("svm", MakeResponse({MakeRecommendation(
                                           0, "", 1200000000.0, 8, 61234.5,
                                           12.25, 0.0)},
                                       /*cache_hit=*/false, 1))
          .Dump(),
      R"j({"app":"svm","cache_hit":false,"model_version":1,)j"
      R"j("recommendations":[{"schedule_id":0,"plan":"-",)j"
      R"j("predicted_bytes":1200000000,"machines":8,)j"
      R"j("predicted_time_ms":61234.5,"predicted_cost_machine_min":12.25,)j"
      R"j("objective_score":0}]})j");
  // cache_hit true, a Table 2 plan, shortest round-trip doubles, two
  // recommendations.
  EXPECT_EQ(
      ResponseJson(
          "lor",
          MakeResponse({MakeRecommendation(3, "p(1) u(1) p(3)", 0.1, 2, 1e-7,
                                           1.5e300, 1.0 / 3.0),
                        MakeRecommendation(12, "p(11)", -2.5, -1, 5e-324,
                                           -0.0, 0.75)},
                       /*cache_hit=*/true, 42))
          .Dump(),
      R"j({"app":"lor","cache_hit":true,"model_version":42,)j"
      R"j("recommendations":[{"schedule_id":3,"plan":"p(1) u(1) p(3)",)j"
      R"j("predicted_bytes":0.1,"machines":2,"predicted_time_ms":1e-07,)j"
      R"j("predicted_cost_machine_min":1.5e+300,)j"
      R"j("objective_score":0.3333333333333333},)j"
      R"j({"schedule_id":12,"plan":"p(11)","predicted_bytes":-2.5,)j"
      R"j("machines":-1,"predicted_time_ms":5e-324,)j"
      R"j("predicted_cost_machine_min":0,"objective_score":0.75}]})j");
  // No recommendations at all.
  EXPECT_EQ(ResponseJson("pca", MakeResponse({}, false, 0)).Dump(),
            R"j({"app":"pca","cache_hit":false,"model_version":0,)j"
            R"j("recommendations":[]})j");
}

TEST(ResponseBytesTest, NonFiniteAndLargeIntegralNumbersMatchGoldenText) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // JSON has no spelling for NaN or infinity: they encode as null.
  EXPECT_EQ(ResponseJson("svm", MakeResponse({MakeRecommendation(
                                                 1, "p(2)", nan, 3, inf,
                                                 -inf, nan)},
                                             true, 5))
                .Dump(),
            R"j({"app":"svm","cache_hit":true,"model_version":5,)j"
            R"j("recommendations":[{"schedule_id":1,"plan":"p(2)",)j"
            R"j("predicted_bytes":null,"machines":3,"predicted_time_ms":null,)j"
            R"j("predicted_cost_machine_min":null,"objective_score":null}]})j");
  // Integral doubles print as integers below 2^53 and in shortest
  // round-trip form from 2^53 on; model versions beyond 2^53 round like
  // any double.
  EXPECT_EQ(ResponseJson("svm",
                         MakeResponse({MakeRecommendation(
                                          2147483647, "u(2147483647)",
                                          9007199254740991.0, -2147483647 - 1,
                                          -9007199254740991.0,
                                          9007199254740992.0,
                                          1152921504606846976.0)},
                                      false, (uint64_t{1} << 53) + 3))
                .Dump(),
            R"j({"app":"svm","cache_hit":false,)j"
            R"j("model_version":9007199254740996,)j"
            R"j("recommendations":[{"schedule_id":2147483647,)j"
            R"j("plan":"u(2147483647)","predicted_bytes":9007199254740991,)j"
            R"j("machines":-2147483648,"predicted_time_ms":-9007199254740991,)j"
            R"j("predicted_cost_machine_min":9007199254740992,)j"
            R"j("objective_score":1152921504606846976}]})j");
  EXPECT_EQ(ResponseJson("svm", MakeResponse({MakeRecommendation(
                                                 0, "", 1e22, 0, -1e22,
                                                 123456789012345678.0, 0)},
                                             false, ~uint64_t{0}))
                .Dump(),
            R"j({"app":"svm","cache_hit":false,)j"
            R"j("model_version":18446744073709551616,)j"
            R"j("recommendations":[{"schedule_id":0,"plan":"-",)j"
            R"j("predicted_bytes":1e+22,"machines":0,)j"
            R"j("predicted_time_ms":-1e+22,)j"
            R"j("predicted_cost_machine_min":123456789012345680,)j"
            R"j("objective_score":0}]})j");
}

TEST(ResponseBytesTest, AppNamesAreEscapedLikeTheDom) {
  const std::string app = std::string("q\"b\\s/") + '\x01' + '\x1f' + '\x7f' +
                          "\b\f\n\r\t " + "\xc3\xa9\xf0\x9f\x98\x80";
  const std::string encoded =
      ResponseJson(app, MakeResponse({}, false, 1)).Dump();
  EXPECT_EQ(encoded,
            std::string(R"j({"app":"q\"b\\s/\u0001\u001f)j") + '\x7f' +
                R"j(\b\f\n\r\t )j" + "\xc3\xa9\xf0\x9f\x98\x80" +
                R"j(","cache_hit":false,"model_version":1,)j"
                R"j("recommendations":[]})j");
  auto reparsed = Json::Parse(encoded);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->StringOr("app", ""), app);
}

TEST(ResponseBytesTest, AppsAndReloadDocumentsMatchGoldenText) {
  RecommendFixture f("apps_reload_bytes");
  EXPECT_EQ(f.server->Handle(MakeRequest("GET", "/v1/apps")).body,
            R"({"version":1,"apps":["svm"]})");
  EXPECT_EQ(f.server->Handle(MakeRequest("POST", "/v1/reload")).body,
            R"({"version":1,"models":1,"refresh":{"scanned":1,"parsed":0,)"
            R"("reused":1,"removed":0,"failed":0}})");
}

TEST(ResponseBytesTest, ErrorResponsesMatchGoldenWire) {
  const auto wire = [](const std::string& head, const std::string& body) {
    return "HTTP/1.1 " + head +
           "\r\nContent-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\nConnection: keep-alive\r\n";
  };
  const std::string bad =
      R"j({"error":{"code":"INVALID_ARGUMENT","message":"bad \"x\"\n"}})j";
  EXPECT_EQ(SerializeResponse(
                ErrorResponse(Status::InvalidArgument("bad \"x\"\n")), true),
            wire("400 Bad Request", bad) + "\r\n" + bad);
  const std::string missing =
      R"j({"error":{"code":"NOT_FOUND","message":"no route for /x"}})j";
  EXPECT_EQ(SerializeResponse(
                ErrorResponse(Status::NotFound("no route for /x")), true),
            wire("404 Not Found", missing) + "\r\n" + missing);
  const std::string method =
      R"j({"error":{"code":"INVALID_ARGUMENT",)j"
      R"j("message":"method not allowed; use POST"}})j";
  EXPECT_EQ(SerializeResponse(MethodNotAllowed("POST"), true),
            wire("405 Method Not Allowed", method) + "Allow: POST\r\n\r\n" +
                method);
  const std::string busy =
      R"j({"error":{"code":"RESOURCE_EXHAUSTED","message":"queue full"}})j";
  const std::string busy_wire = wire("503 Service Unavailable", busy) +
                                "Retry-After: 1\r\n\r\n" + busy;
  EXPECT_EQ(SerializeResponse(
                ErrorResponse(Status::ResourceExhausted("queue full")), true),
            busy_wire);
  // AppendResponse writes the same bytes after whatever `out` holds.
  std::string out = "previous reply";
  AppendResponse(&out, ErrorResponse(Status::ResourceExhausted("queue full")),
                 true);
  EXPECT_EQ(out, "previous reply" + busy_wire);
}

TEST(ResponseBytesTest, BatchMixingOkAndErrorSlotsMatchesTheDom) {
  RecommendFixture f("batch_bytes");
  const std::string body = std::string(R"j({"requests":[)j") + kSvmBody +
                           R"j(,{"app":"nope","params":)j"
                           R"j({"examples":100,"features":10}},)j" +
                           kSvmBody + "]}";
  auto svm = ParseRecommendRequest(*Json::Parse(kSvmBody));
  ASSERT_TRUE(svm.ok());
  auto nope = ParseRecommendRequest(*Json::Parse(
      R"j({"app":"nope","params":{"examples":100,"features":10}})j"));
  ASSERT_TRUE(nope.ok());
  // Warm the key first, so both svm slots are cache hits with known bytes.
  auto answer = f.service->Recommend(*svm);
  ASSERT_TRUE(answer.ok());
  answer->cache_hit = true;
  const Status unknown = f.service->Recommend(*nope).status();
  ASSERT_FALSE(unknown.ok());

  const HttpResponse response =
      f.server->Handle(MakeRequest("POST", "/v1/recommend", body));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.content_type, "application/json");
  const std::string expected =
      Json::Obj()
          .Set("results", Json::Arr()
                              .Append(ReferenceResponseJson("svm", *answer))
                              .Append(ErrorJson(unknown))
                              .Append(ReferenceResponseJson("svm", *answer)))
          .Dump();
  EXPECT_EQ(response.body, expected);
}

TEST(ResponseBytesTest, WriterMatchesTheDomOnRandomResponses) {
  std::mt19937_64 rng(20261017);
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng() % n);
  };
  const std::vector<double> specials = {
      0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 5e-324, 2.2250738585072014e-308,
      1.7976931348623157e308, 9007199254740991.0, 9007199254740992.0,
      std::ldexp(1.0, 60), -9007199254740992.0, 1e15, 1e16, 1e21, 1e22,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  const auto number = [&]() -> double {
    switch (pick(4)) {
      case 0:
        return specials[pick(specials.size())];
      case 1:  // Integral, up to past 2^53.
        return static_cast<double>(rng() >> pick(64)) *
               (pick(2) == 0 ? 1.0 : -1.0);
      case 2: {  // Any bit pattern (NaNs and subnormals included).
        const uint64_t bits = rng();
        double value;
        std::memcpy(&value, &bits, sizeof(value));
        return value;
      }
      default:  // Serving-shaped magnitudes with fractions.
        return std::uniform_real_distribution<double>(-1e6, 1e12)(rng);
    }
  };
  const std::string alphabet =
      std::string("svmlorpca_-.\"\\/ \x01\x1f\x7f\b\f\n\r\t") +
      "\xc3\xa9\xf0\x9f\x98\x80";
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::string app;
    const size_t app_size = pick(12);
    for (size_t i = 0; i < app_size; ++i) {
      app += alphabet[pick(alphabet.size())];
    }
    std::vector<core::Recommendation> recommendations(pick(7));
    for (core::Recommendation& r : recommendations) {
      r.schedule_id = static_cast<int>(static_cast<int32_t>(rng()));
      for (size_t op = pick(5); op > 0; --op) {
        const auto dataset = static_cast<minispark::DatasetId>(
            pick(2) == 0 ? pick(20) : static_cast<int32_t>(rng()));
        r.plan.ops.push_back(pick(2) == 0
                                 ? minispark::CacheOp::Persist(dataset)
                                 : minispark::CacheOp::Unpersist(dataset));
      }
      r.predicted_bytes = number();
      r.machines = static_cast<int>(pick(2) == 0 ? pick(64)
                                                 : static_cast<int32_t>(rng()));
      r.predicted_time_ms = number();
      r.predicted_cost_machine_min = number();
      r.objective_score = number();
    }
    const uint64_t version = pick(2) == 0 ? pick(100) : rng();
    const service::RecommendResponse response =
        MakeResponse(std::move(recommendations), pick(2) == 0, version);
    ASSERT_EQ(ResponseJson(app, response).Dump(),
              ReferenceResponseJson(app, response).Dump())
        << "iteration " << iteration;
  }
}

}  // namespace
}  // namespace juggler::net
