// Tests for the src/rpc subsystem: JRPC frame encode/decode (round trips,
// split feeds, every header-rejection edge, poison semantics), the
// RpcClient/RpcServer pair over real loopback sockets (including the
// server's inline FastHandler and pipelined ordering), and the pipelined,
// non-blocking RpcChannel.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/poller.h"
#include "net/recommend_codec.h"
#include "rpc/frame.h"
#include "rpc/rpc_channel.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_server.h"

namespace juggler::rpc {
namespace {

RpcFrame MakeFrame(FrameType type, uint64_t request_id, std::string payload) {
  RpcFrame frame;
  frame.type = type;
  frame.request_id = request_id;
  frame.payload = std::move(payload);
  return frame;
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(FrameTest, EncodeProducesDocumentedLayout) {
  const std::string wire =
      EncodeFrame(MakeFrame(FrameType::kRecommend, 0x0102030405060708ULL, "x"));
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 1);
  EXPECT_EQ(wire.substr(0, 4), "JRPC");
  EXPECT_EQ(static_cast<uint8_t>(wire[4]), kProtocolVersion);
  EXPECT_EQ(static_cast<uint8_t>(wire[5]),
            static_cast<uint8_t>(FrameType::kRecommend));
  EXPECT_EQ(wire[6], 0);  // Reserved.
  EXPECT_EQ(wire[7], 0);
  // Request id, big-endian.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<uint8_t>(wire[8 + i]), i + 1) << "byte " << i;
  }
  // Payload length, big-endian.
  EXPECT_EQ(wire.substr(16, 4), std::string("\x00\x00\x00\x01", 4));
  EXPECT_EQ(wire[20], 'x');
}

TEST(FrameTest, RoundTripsEveryFrameType) {
  for (uint8_t t = static_cast<uint8_t>(FrameType::kPing);
       t <= static_cast<uint8_t>(FrameType::kObserveReply); ++t) {
    ASSERT_TRUE(IsKnownFrameType(t));
    const RpcFrame in = MakeFrame(static_cast<FrameType>(t), 77 + t,
                                  "payload-" + std::to_string(t));
    FrameDecoder decoder;
    const std::string wire = EncodeFrame(in);
    decoder.Append(wire.data(), wire.size());
    const auto result = decoder.Next();
    ASSERT_EQ(result.state, FrameDecoder::State::kReady) << "type " << int{t};
    EXPECT_EQ(result.frame.type, in.type);
    EXPECT_EQ(result.frame.request_id, in.request_id);
    EXPECT_EQ(result.frame.payload, in.payload);
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
  EXPECT_FALSE(IsKnownFrameType(0));
  EXPECT_FALSE(IsKnownFrameType(12));
  EXPECT_FALSE(IsKnownFrameType(255));
}

TEST(FrameTest, DecodesByteAtATimeAndBackToBackFrames) {
  const std::string wire =
      EncodeFrame(MakeFrame(FrameType::kRecommend, 1, R"({"app":"svm"})")) +
      EncodeFrame(MakeFrame(FrameType::kPing, 2, "")) +
      EncodeFrame(MakeFrame(FrameType::kApps, 3, ""));
  FrameDecoder decoder;
  std::vector<RpcFrame> frames;
  for (char byte : wire) {
    decoder.Append(&byte, 1);
    while (true) {
      const auto result = decoder.Next();
      if (result.state != FrameDecoder::State::kReady) {
        ASSERT_EQ(result.state, FrameDecoder::State::kNeedMore);
        break;
      }
      frames.push_back(result.frame);
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].payload, R"({"app":"svm"})");
  EXPECT_EQ(frames[1].type, FrameType::kPing);
  EXPECT_EQ(frames[2].request_id, 3u);
}

TEST(FrameTest, EmptyAndIncompleteInputNeedsMore) {
  FrameDecoder decoder;
  EXPECT_EQ(decoder.Next().state, FrameDecoder::State::kNeedMore);
  // A valid header prefix (even a partial one) must not error.
  const std::string wire = EncodeFrame(MakeFrame(FrameType::kPong, 9, "abc"));
  decoder.Append(wire.data(), kFrameHeaderBytes + 1);  // Missing "bc".
  EXPECT_EQ(decoder.Next().state, FrameDecoder::State::kNeedMore);
  decoder.Append(wire.data() + kFrameHeaderBytes + 1, 2);
  const auto result = decoder.Next();
  ASSERT_EQ(result.state, FrameDecoder::State::kReady);
  EXPECT_EQ(result.frame.payload, "abc");
}

struct RejectCase {
  const char* name;
  std::string wire;
  const char* detail_substring;
};

TEST(FrameTest, RejectsMalformedHeaders) {
  const std::string good = EncodeFrame(MakeFrame(FrameType::kPing, 1, ""));
  std::vector<RejectCase> cases;
  cases.push_back({"bad magic", "HTTP" + good.substr(4), "magic"});
  // The magic is pre-checked from byte 0: one wrong leading byte is enough.
  cases.push_back({"bad first byte", "X", "magic"});
  {
    std::string wire = good;
    wire[4] = 2;
    cases.push_back({"bad version", wire, "version"});
  }
  {
    std::string wire = good;
    wire[5] = 0;
    cases.push_back({"frame type zero", wire, "type"});
  }
  {
    std::string wire = good;
    wire[5] = 12;
    cases.push_back({"frame type past kObserveReply", wire, "type"});
  }
  {
    std::string wire = good;
    wire[6] = '\xbe';
    wire[7] = '\xef';
    cases.push_back({"reserved bytes set", wire, "reserved"});
  }
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    FrameDecoder decoder;
    decoder.Append(c.wire.data(), c.wire.size());
    const auto result = decoder.Next();
    ASSERT_EQ(result.state, FrameDecoder::State::kError);
    EXPECT_NE(result.error_detail.find(c.detail_substring), std::string::npos)
        << result.error_detail;
    EXPECT_TRUE(decoder.failed());
    EXPECT_EQ(decoder.buffered_bytes(), 0u)
        << "poisoned decoders must not buffer a hostile stream";
  }
}

TEST(FrameTest, RejectsOversizedPayloadFromHeaderAlone) {
  FrameDecoder::Limits limits;
  limits.max_payload_bytes = 64;
  // At the limit: fine.
  {
    FrameDecoder decoder(limits);
    const std::string wire =
        EncodeFrame(MakeFrame(FrameType::kPong, 1, std::string(64, 'a')));
    decoder.Append(wire.data(), wire.size());
    EXPECT_EQ(decoder.Next().state, FrameDecoder::State::kReady);
  }
  // One past the limit: rejected from the 20-byte header, before any payload
  // byte arrives.
  {
    FrameDecoder decoder(limits);
    const std::string wire =
        EncodeFrame(MakeFrame(FrameType::kPong, 1, std::string(65, 'a')));
    decoder.Append(wire.data(), kFrameHeaderBytes);
    const auto result = decoder.Next();
    ASSERT_EQ(result.state, FrameDecoder::State::kError);
    EXPECT_NE(result.error_detail.find("exceeds"), std::string::npos);
  }
  // u32-max declared length must not overflow the header math.
  {
    FrameDecoder decoder(limits);
    std::string wire = EncodeFrame(MakeFrame(FrameType::kPong, 1, ""));
    wire[16] = wire[17] = wire[18] = wire[19] = '\xff';
    decoder.Append(wire.data(), wire.size());
    EXPECT_EQ(decoder.Next().state, FrameDecoder::State::kError);
  }
}

TEST(FrameTest, PoisonIsSticky) {
  FrameDecoder decoder;
  const std::string bad = "WXYZ";
  decoder.Append(bad.data(), bad.size());
  const auto first = decoder.Next();
  ASSERT_EQ(first.state, FrameDecoder::State::kError);
  // A valid frame after the poison changes nothing: framing is lost.
  const std::string good = EncodeFrame(MakeFrame(FrameType::kPing, 1, ""));
  decoder.Append(good.data(), good.size());
  const auto second = decoder.Next();
  EXPECT_EQ(second.state, FrameDecoder::State::kError);
  EXPECT_EQ(second.error_detail, first.error_detail);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameTest, GarbageAfterValidFramePoisonsOnNextHeader) {
  FrameDecoder decoder;
  const std::string wire =
      EncodeFrame(MakeFrame(FrameType::kPing, 5, "")) + "garbage";
  decoder.Append(wire.data(), wire.size());
  const auto first = decoder.Next();
  ASSERT_EQ(first.state, FrameDecoder::State::kReady);
  EXPECT_EQ(first.frame.request_id, 5u);
  EXPECT_EQ(decoder.Next().state, FrameDecoder::State::kError);
}

TEST(FrameTest, PipelinedBurstOfSixteenMebibytesIsLinear) {
  // 838 861 pipelined pings in one 16 MiB burst, fed whole and in the event
  // loop's 16 KiB reads. Consumed frames advance a read offset that the next
  // Append drops in one move; removing each frame from the front of the
  // buffer would move the rest of the burst once per frame, minutes of
  // memmove for this burst.
  const std::string one = EncodeFrame(MakeFrame(FrameType::kPing, 9, ""));
  const size_t count = (size_t{16} << 20) / one.size() + 1;
  std::string burst;
  burst.reserve(count * one.size());
  for (size_t i = 0; i < count; ++i) burst += one;
  for (const size_t read_size : {burst.size(), size_t{16384}}) {
    FrameDecoder decoder;
    size_t decoded = 0;
    for (size_t fed = 0; fed < burst.size(); fed += read_size) {
      decoder.Append(burst.data() + fed,
                     std::min(read_size, burst.size() - fed));
      for (;;) {
        const auto result = decoder.Next();
        if (result.state == FrameDecoder::State::kNeedMore) break;
        ASSERT_EQ(result.state, FrameDecoder::State::kReady);
        ASSERT_EQ(result.frame.request_id, 9u) << "frame " << decoded;
        ++decoded;
      }
    }
    EXPECT_EQ(decoded, count) << "read size " << read_size;
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

// ---------------------------------------------------------------------------
// RpcClient / RpcServer over loopback sockets
// ---------------------------------------------------------------------------

class RpcLoopbackTest : public ::testing::TestWithParam<bool> {
 protected:
  RpcServer::Options BaseOptions() {
    RpcServer::Options options;
    options.force_poll = GetParam();
    options.num_handler_threads = 2;
    return options;
  }

  RpcClient::Options ClientOptions(uint16_t port) {
    RpcClient::Options options;
    options.port = port;
    return options;
  }
};

RpcServer::Handler EchoHandler() {
  return [](const RpcFrame& request) {
    RpcFrame reply;
    reply.type = FrameType::kRecommendReply;
    reply.payload = "echo:" + request.payload;
    return reply;
  };
}

TEST_P(RpcLoopbackTest, CallRoundTripsAndMatchesRequestIds) {
  RpcServer server(BaseOptions(), EchoHandler());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  EXPECT_EQ(server.backend(), GetParam() ? "poll" : "epoll");

  RpcClient client(ClientOptions(server.port()));
  for (int i = 0; i < 5; ++i) {
    auto reply = client.Call(FrameType::kRecommend, "req" + std::to_string(i));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, FrameType::kRecommendReply);
    EXPECT_EQ(reply->payload, "echo:req" + std::to_string(i));
  }
  const auto stats = server.GetStats();
  EXPECT_EQ(stats.accepted, 1u) << "one client, one connection";
  EXPECT_EQ(stats.requests, 5u);
  server.Stop();
}

TEST_P(RpcLoopbackTest, PingIsAnsweredInlineWithoutTouchingTheHandler) {
  std::atomic<int> handler_calls{0};
  RpcServer server(BaseOptions(), [&](const RpcFrame&) {
    handler_calls.fetch_add(1);
    return RpcFrame{};
  });
  ASSERT_TRUE(server.Start().ok());

  RpcClient client(ClientOptions(server.port()));
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_EQ(handler_calls.load(), 0);
  EXPECT_EQ(server.GetStats().fast_path, 2u);
  server.Stop();
}

TEST_P(RpcLoopbackTest, ErrorRepliesArriveAsFramesNotTransportFailures) {
  RpcServer server(BaseOptions(), [](const RpcFrame&) {
    RpcFrame reply;
    reply.type = FrameType::kError;
    reply.payload = R"({"error":{"code":"NOT_FOUND","message":"no app"}})";
    return reply;
  });
  ASSERT_TRUE(server.Start().ok());

  RpcClient client(ClientOptions(server.port()));
  auto reply = client.Call(FrameType::kRecommend, "{}");
  ASSERT_TRUE(reply.ok()) << "kError is an application reply, not a "
                          << "transport failure: " << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_NE(reply->payload.find("NOT_FOUND"), std::string::npos);
  EXPECT_TRUE(client.connected()) << "connection must survive a kError reply";
  server.Stop();
}

/// Minimal raw byte-stream client (tests may open sockets freely; the lint
/// raw-socket rule only covers src/).
class RawClient {
 public:
  explicit RawClient(uint16_t port) {
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
  ~RawClient() {
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

  /// Reads until `count` complete frames arrived (or the peer closes, or
  /// the receive timeout passes); returns the frames in arrival order.
  std::vector<RpcFrame> ReadFrames(size_t count) {
    FrameDecoder decoder;
    std::vector<RpcFrame> frames;
    char chunk[4096];
    while (frames.size() < count) {
      auto result = decoder.Next();
      if (result.state == FrameDecoder::State::kReady) {
        frames.push_back(std::move(result.frame));
        continue;
      }
      if (result.state == FrameDecoder::State::kError) break;
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      decoder.Append(chunk, static_cast<size_t>(n));
    }
    return frames;
  }

  /// Reads until EOF; returns everything the server sent.
  std::string ReadToEof() {
    std::string out;
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return out;
      out.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
};

TEST_P(RpcLoopbackTest, MalformedStreamGetsErrorFrameAndClose) {
  RpcServer server(BaseOptions(), EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  // A healthy connection opened first must be unaffected by the bad one.
  RpcClient healthy(ClientOptions(server.port()));
  ASSERT_TRUE(healthy.Ping().ok());

  RawClient bad(server.port());
  bad.Send("this is not a JRPC stream");
  const std::string response = bad.ReadToEof();

  // The server's last words: exactly one kError frame, then close.
  FrameDecoder decoder;
  decoder.Append(response.data(), response.size());
  const auto result = decoder.Next();
  ASSERT_EQ(result.state, FrameDecoder::State::kReady);
  EXPECT_EQ(result.frame.type, FrameType::kError);
  EXPECT_EQ(result.frame.request_id, 0u)
      << "a broken stream no longer identifies a request";
  EXPECT_EQ(decoder.buffered_bytes(), 0u) << "nothing after the error frame";

  ASSERT_TRUE(healthy.Ping().ok()) << "healthy connection must be unaffected";
  EXPECT_GE(server.GetStats().parse_errors, 1u);
  server.Stop();
}

/// Polls `read` until it returns non-zero or `timeout` passes; returns the
/// last value read.
template <typename Read>
uint64_t WaitForNonZero(Read read, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  uint64_t value = read();
  while (value == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    value = read();
  }
  return value;
}

TEST_P(RpcLoopbackTest, StalledFrameReadGetsDeadlineErrorAndClose) {
  RpcServer::Options options = BaseOptions();
  options.header_read_timeout_ms = 100;
  RpcServer server(options, EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  // A slowloris on the shard port: half a frame header, then nothing. The
  // idle sweeper alone would keep this alive; the read deadline must not.
  const std::string frame =
      EncodeFrame(MakeFrame(FrameType::kRecommend, 7, "stalled"));
  RawClient slow(server.port());
  slow.Send(frame.substr(0, kFrameHeaderBytes / 2));
  const std::string response = slow.ReadToEof();

  FrameDecoder decoder;
  decoder.Append(response.data(), response.size());
  const auto result = decoder.Next();
  ASSERT_EQ(result.state, FrameDecoder::State::kReady);
  EXPECT_EQ(result.frame.type, FrameType::kError);
  EXPECT_EQ(result.frame.request_id, 0u);
  EXPECT_NE(result.frame.payload.find("ABORTED"), std::string::npos)
      << result.frame.payload;
  EXPECT_EQ(net::StatusFromErrorJson(result.frame.payload).code(),
            StatusCode::kAborted)
      << result.frame.payload;
  EXPECT_EQ(decoder.buffered_bytes(), 0u) << "nothing after the error frame";
  EXPECT_EQ(WaitForNonZero([&] { return server.GetStats().slow_read_closed; },
                           std::chrono::seconds(5)),
            1u);

  // A complete frame on a fresh connection is unaffected.
  RpcClient fine(ClientOptions(server.port()));
  auto reply = fine.Call(FrameType::kRecommend, "ok");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->payload, "echo:ok");
  server.Stop();
}

TEST_P(RpcLoopbackTest, ClientNotDrainingRepliesIsClosed) {
  RpcServer::Options options = BaseOptions();
  options.write_timeout_ms = 150;
  RpcServer server(options, [](const RpcFrame&) {
    // Far more than the kernel socket buffers absorb, so the server's write
    // buffer stays non-empty while the client refuses to read.
    return MakeFrame(FrameType::kRecommendReply, 0, std::string(32 << 20, 'x'));
  });
  ASSERT_TRUE(server.Start().ok());

  RawClient stalled(server.port());
  stalled.Send(EncodeFrame(MakeFrame(FrameType::kRecommend, 1, "big")));
  // Never read. The write deadline must reap the connection instead of
  // letting the reply bytes sit queued forever.
  EXPECT_EQ(WaitForNonZero([&] { return server.GetStats().slow_write_closed; },
                           std::chrono::seconds(10)),
            1u);
  server.Stop();
}

TEST_P(RpcLoopbackTest, SilentPeerTripsCallDeadline) {
  // A listener that accepts into its backlog and never answers: the client's
  // call deadline must fire (kAborted), not hang.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  RpcClient::Options silent_options;
  silent_options.port = ntohs(addr.sin_port);
  silent_options.call_timeout_ms = 200;
  RpcClient silent_client(silent_options);
  const auto start = std::chrono::steady_clock::now();
  auto reply = silent_client.Call(FrameType::kRecommend, "{}");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kAborted)
      << reply.status().ToString();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5'000)
      << "deadline must fire well before the default call timeout";
  ::close(listen_fd);
}

TEST_P(RpcLoopbackTest, DialFailureIsAnError) {
  // Nothing listens on this port (bound-then-closed to find a free one).
  RpcServer probe(BaseOptions(), EchoHandler());
  ASSERT_TRUE(probe.Start().ok());
  const uint16_t dead_port = probe.port();
  probe.Stop();

  RpcClient::Options options;
  options.port = dead_port;
  options.connect_timeout_ms = 200;
  RpcClient client(options);
  auto reply = client.Call(FrameType::kPing, "");
  EXPECT_FALSE(reply.ok());
  EXPECT_FALSE(client.connected());
}

TEST_P(RpcLoopbackTest, ServerStopUnblocksClients) {
  RpcServer server(BaseOptions(), [](const RpcFrame& request) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    RpcFrame reply;
    reply.type = FrameType::kRecommendReply;
    reply.payload = request.payload;
    return reply;
  });
  ASSERT_TRUE(server.Start().ok());

  RpcClient client(ClientOptions(server.port()));
  ASSERT_TRUE(client.Ping().ok());
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.Stop();
  });
  // Either the reply made it out before the close, or the call fails as a
  // transport error — it must not hang.
  (void)client.Call(FrameType::kRecommend, "during-shutdown");
  stopper.join();
}

TEST_P(RpcLoopbackTest, ClientRedialsAfterThePeerRestarts) {
  // The prober's recovery path: one kept client, redialled only after a
  // failure closed its connection.
  auto server = std::make_unique<RpcServer>(BaseOptions(), EchoHandler());
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();
  RpcClient client(ClientOptions(port));
  ASSERT_TRUE(client.Ping().ok());

  server->Stop();
  EXPECT_FALSE(client.Ping().ok());
  EXPECT_FALSE(client.connected());

  // The listener sets SO_REUSEADDR, so a new server takes the same port.
  RpcServer::Options options = BaseOptions();
  options.port = port;
  server = std::make_unique<RpcServer>(options, EchoHandler());
  ASSERT_TRUE(server->Start().ok());
  ASSERT_EQ(server->port(), port);
  const Status pinged = client.Ping();
  EXPECT_TRUE(pinged.ok()) << pinged.ToString();
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(server->GetStats().accepted, 1u);
  server->Stop();
}

TEST_P(RpcLoopbackTest, FastHandlerRepliesInlineWithTheRequestId) {
  std::atomic<int> pool_calls{0};
  RpcServer server(
      BaseOptions(),
      [&](const RpcFrame& request) {
        pool_calls.fetch_add(1);
        return MakeFrame(FrameType::kRecommendReply, 0,
                         "pool:" + request.payload);
      },
      [](const RpcFrame& request) -> std::optional<RpcFrame> {
        if (request.payload.rfind("fast", 0) != 0) return std::nullopt;
        // A wrong id on purpose: the server must stamp the request's.
        return MakeFrame(FrameType::kRecommendReply, 999,
                         "inline:" + request.payload);
      });
  ASSERT_TRUE(server.Start().ok());

  RawClient client(server.port());
  client.Send(EncodeFrame(MakeFrame(FrameType::kRecommend, 41, "fast-1")));
  auto frames = client.ReadFrames(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].request_id, 41u);
  EXPECT_EQ(frames[0].payload, "inline:fast-1");
  EXPECT_EQ(pool_calls.load(), 0);
  EXPECT_EQ(server.GetStats().fast_path, 1u);

  // nullopt falls through to the pool; fast_path does not move.
  client.Send(EncodeFrame(MakeFrame(FrameType::kRecommend, 42, "slow-1")));
  frames = client.ReadFrames(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].request_id, 42u);
  EXPECT_EQ(frames[0].payload, "pool:slow-1");
  EXPECT_EQ(pool_calls.load(), 1);
  const auto stats = server.GetStats();
  EXPECT_EQ(stats.fast_path, 1u);
  EXPECT_EQ(stats.requests, 2u);
  server.Stop();
}

TEST_P(RpcLoopbackTest, PipelinedFramesAreAnsweredInOrder) {
  // Pool answers are slow and inline answers instant: replies must still
  // leave in request order, whichever path each frame takes.
  RpcServer server(
      BaseOptions(),
      [](const RpcFrame& request) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return MakeFrame(FrameType::kRecommendReply, 0, request.payload);
      },
      [](const RpcFrame& request) -> std::optional<RpcFrame> {
        if (request.payload.rfind("fast", 0) != 0) return std::nullopt;
        return MakeFrame(FrameType::kRecommendReply, 0, request.payload);
      });
  ASSERT_TRUE(server.Start().ok());

  std::string burst;
  std::vector<std::string> payloads;
  for (uint64_t id = 1; id <= 12; ++id) {
    payloads.push_back((id % 3 == 0 ? "slow-" : "fast-") +
                       std::to_string(id));
    AppendFrame(MakeFrame(FrameType::kRecommend, id, payloads.back()),
                &burst);
  }
  RawClient client(server.port());
  client.Send(burst);  // One write: every frame in flight at once.
  const auto frames = client.ReadFrames(payloads.size());
  ASSERT_EQ(frames.size(), payloads.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].request_id, i + 1) << "reply " << i;
    EXPECT_EQ(frames[i].payload, payloads[i]);
  }
  EXPECT_EQ(server.GetStats().fast_path, 8u);
  server.Stop();
}

/// Drives `channel` on a private poller until `want` outcomes arrived or
/// `timeout` passed, checking deadlines on every turn like the router loop.
std::vector<RpcChannel::Outcome> DriveChannel(
    net::Poller* poller, RpcChannel* channel, size_t want,
    std::chrono::milliseconds timeout) {
  std::vector<RpcChannel::Outcome> outcomes;
  std::vector<net::Poller::Event> events;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  channel->Flush(&outcomes);
  while (outcomes.size() < want && std::chrono::steady_clock::now() < deadline) {
    EXPECT_TRUE(poller->Wait(10, &events).ok());
    for (const auto& event : events) channel->OnEvent(event, &outcomes);
    channel->CheckDeadlines(std::chrono::steady_clock::now(), &outcomes);
    if (channel->dirty()) channel->Flush(&outcomes);
  }
  return outcomes;
}

TEST_P(RpcLoopbackTest, ChannelPipelinesCallsAndMatchesIds) {
  RpcServer server(BaseOptions(), EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  auto poller = net::Poller::Create(GetParam());
  RpcChannel::Options options;
  options.port = server.port();
  RpcChannel channel(options, poller.get());
  for (uint64_t id = 10; id < 20; ++id) {
    channel.Send(FrameType::kRecommend, id, "call-" + std::to_string(id));
  }
  EXPECT_EQ(channel.in_flight(), 10u);
  const auto outcomes =
      DriveChannel(poller.get(), &channel, 10, std::chrono::seconds(10));
  ASSERT_EQ(outcomes.size(), 10u);
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.reply.ok()) << outcome.reply.status().ToString();
    EXPECT_EQ(outcome.reply->payload,
              "echo:call-" + std::to_string(outcome.request_id));
  }
  EXPECT_EQ(channel.in_flight(), 0u);
  EXPECT_EQ(server.GetStats().accepted, 1u) << "one connection, pipelined";
  server.Stop();
}

TEST_P(RpcLoopbackTest, ChannelFailsEveryCallOnASilentPeerAtTheDeadline) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  auto poller = net::Poller::Create(GetParam());
  RpcChannel::Options options;
  options.port = ntohs(addr.sin_port);
  options.call_timeout_ms = 150;
  RpcChannel channel(options, poller.get());
  channel.Send(FrameType::kRecommend, 1, "a");
  channel.Send(FrameType::kRecommend, 2, "b");
  const auto start = std::chrono::steady_clock::now();
  const auto outcomes =
      DriveChannel(poller.get(), &channel, 2, std::chrono::seconds(10));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.reply.status().code(), StatusCode::kAborted)
        << outcome.reply.status().ToString();
  }
  EXPECT_GE(elapsed.count(), 140);
  EXPECT_LT(elapsed.count(), 5'000);
  EXPECT_EQ(channel.fd(), -1) << "a timed-out connection is closed";
  ::close(listen_fd);
}

TEST_P(RpcLoopbackTest, ChannelDialFailureFailsTheCalls) {
  RpcServer probe(BaseOptions(), EchoHandler());
  ASSERT_TRUE(probe.Start().ok());
  const uint16_t dead_port = probe.port();
  probe.Stop();

  auto poller = net::Poller::Create(GetParam());
  RpcChannel::Options options;
  options.port = dead_port;
  options.connect_timeout_ms = 200;
  RpcChannel channel(options, poller.get());
  channel.Send(FrameType::kPing, 1, "");
  const auto outcomes =
      DriveChannel(poller.get(), &channel, 1, std::chrono::seconds(10));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].reply.ok());
  EXPECT_EQ(channel.in_flight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, RpcLoopbackTest, ::testing::Bool(),
                         [](const auto& param_info) {
                           return param_info.param ? "poll" : "epoll";
                         });

}  // namespace
}  // namespace juggler::rpc
