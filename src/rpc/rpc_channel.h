#ifndef JUGGLER_RPC_RPC_CHANNEL_H_
#define JUGGLER_RPC_RPC_CHANNEL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "net/poller.h"
#include "rpc/frame.h"

namespace juggler::rpc {

/// \brief One non-blocking, pipelined JRPC connection driven by an event
/// loop: connect, write and read never block, any number of calls are in
/// flight at once, and replies are matched to calls by request id.
///
/// Not thread-safe. The channel adds and removes its own descriptor with
/// its owner's poller; the owner hands that descriptor's events to OnEvent()
/// and calls Flush() and CheckDeadlines() once per loop iteration. Results
/// are appended to an `Outcome` list instead of being called back, so the
/// owner handles them (and may Send() again) with the channel consistent.
///
/// The router's event loop drives its channels this way; RpcClient drives
/// one on a private poller to make blocking calls.
///
/// Failure model: a transport problem — dial failure or timeout, a call
/// past its deadline, peer close, a framing error or an unknown reply id —
/// closes the connection and fails every call in flight on it (kAborted
/// for deadlines, kInternal otherwise); the caller treats that as "shard
/// unreachable". A kError frame is an application answer, not a failure.
/// A shard answers one connection's frames in order, so the calls behind a
/// stuck one are stuck too. The next Flush() with queued calls redials.
class RpcChannel {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    int connect_timeout_ms = 1'000;
    /// Deadline of one call, from Send() to its reply. Must cover a cold
    /// model evaluation on the shard.
    int call_timeout_ms = 5'000;
  };

  /// A reply frame (kError included: an application answer), or the
  /// transport failure that ended the call.
  struct Outcome {
    uint64_t request_id = 0;
    StatusOr<RpcFrame> reply;
  };

  RpcChannel(const Options& options, net::Poller* poller)
      : options_(options), poller_(poller) {}
  ~RpcChannel() { Close(); }

  RpcChannel(const RpcChannel&) = delete;
  RpcChannel& operator=(const RpcChannel&) = delete;

  /// Queues one call; its bytes leave at the next Flush(). `request_id`
  /// must be larger than any earlier one (deadlines follow id order).
  void Send(FrameType type, uint64_t request_id, std::string_view payload);

  /// Dials if needed and writes what is queued.
  void Flush(std::vector<Outcome>* outcomes);

  /// Readiness of fd().
  void OnEvent(const net::Poller::Event& event, std::vector<Outcome>* outcomes);

  /// Fails the connection when its dial or its oldest call is overdue.
  void CheckDeadlines(Clock::time_point now, std::vector<Outcome>* outcomes);

  /// The earliest time CheckDeadlines() can fail the connection: the dial's
  /// or the oldest call's deadline; Clock::time_point::max() when neither
  /// runs.
  Clock::time_point next_deadline() const;

  /// True while Send() queued bytes that Flush() has not tried yet.
  bool dirty() const { return dirty_; }
  int fd() const { return fd_; }
  size_t in_flight() const { return pending_.size(); }

 private:
  void Dial(std::vector<Outcome>* outcomes);
  void WriteQueued(std::vector<Outcome>* outcomes);
  void ReadReplies(std::vector<Outcome>* outcomes);
  /// Closes the connection and fails every call in flight with `status`.
  void Fail(const Status& status, std::vector<Outcome>* outcomes);
  void Close();
  std::string Peer() const;

  const Options options_;
  net::Poller* const poller_;
  int fd_ = -1;
  bool connecting_ = false;
  bool want_write_ = false;  ///< Write interest registered with the poller.
  bool dirty_ = false;
  Clock::time_point connect_deadline_{};
  std::string out_;  ///< Encoded frames not yet written.
  FrameDecoder decoder_;
  /// Calls in flight by request id, with their deadlines. Ids rise with
  /// send time, so the first entry is the oldest call.
  std::map<uint64_t, Clock::time_point> pending_;
};

}  // namespace juggler::rpc

#endif  // JUGGLER_RPC_RPC_CHANNEL_H_
