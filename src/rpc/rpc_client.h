#ifndef JUGGLER_RPC_RPC_CLIENT_H_
#define JUGGLER_RPC_RPC_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "rpc/rpc_channel.h"

namespace juggler::rpc {

/// \brief Blocking JRPC client: one RpcChannel driven on a private poll(2)
/// poller, one call in flight at a time.
///
/// The router's prober keeps one per shard. Not thread-safe: one thread
/// uses a client at a time.
///
/// Call() queues one frame and turns the channel's loop (wait, read, check
/// deadlines) until its outcome arrives, so the failure model is the
/// channel's: a transport problem closes the connection and comes back as a
/// non-OK Status (kAborted for deadlines, kInternal otherwise), and the next
/// Call() redials. A kError frame comes back as an OK result.
class RpcClient {
 public:
  using Options = RpcChannel::Options;

  explicit RpcClient(const Options& options)
      : poller_(net::Poller::Create(/*force_poll=*/true)),
        channel_(options, poller_.get()) {}

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Sends one frame and blocks for its reply: at most `call_timeout_ms`,
  /// with a dial bounded by `connect_timeout_ms` inside it.
  [[nodiscard]] StatusOr<RpcFrame> Call(FrameType type,
                                        std::string_view payload);

  /// Health probe: Call(kPing) must come back kPong.
  [[nodiscard]] Status Ping();

  bool connected() const { return channel_.fd() >= 0; }

 private:
  /// Declared before the channel, which unregisters its fd on destruction.
  std::unique_ptr<net::Poller> poller_;
  RpcChannel channel_;
  uint64_t next_request_id_ = 1;
};

}  // namespace juggler::rpc

#endif  // JUGGLER_RPC_RPC_CLIENT_H_
