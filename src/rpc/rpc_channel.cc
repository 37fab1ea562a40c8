#include "rpc/rpc_channel.h"

#include <algorithm>
#include <utility>

#include "net/socket_util.h"

namespace juggler::rpc {

void RpcChannel::Send(FrameType type, uint64_t request_id,
                      std::string_view payload) {
  AppendFrame(type, request_id, payload, &out_);
  pending_.emplace(request_id, Clock::now() + std::chrono::milliseconds(
                                                  options_.call_timeout_ms));
  dirty_ = true;
}

void RpcChannel::Flush(std::vector<Outcome>* outcomes) {
  dirty_ = false;
  if (out_.empty()) return;
  if (fd_ < 0) {
    Dial(outcomes);
    return;
  }
  if (!connecting_) WriteQueued(outcomes);
}

void RpcChannel::Dial(std::vector<Outcome>* outcomes) {
  auto fd = net::StartConnectTcp(options_.host, options_.port);
  if (!fd.ok()) {
    Fail(Status::Internal("connect " + Peer() + ": " + fd.status().message()),
         outcomes);
    return;
  }
  fd_ = *fd;
  decoder_ = FrameDecoder();  // Fresh framing per connection.
  // Write interest reports the end of the handshake, success or failure.
  if (Status added = poller_->Add(fd_, /*want_read=*/true, /*want_write=*/true);
      !added.ok()) {
    net::CloseFd(fd_);
    fd_ = -1;
    Fail(added, outcomes);
    return;
  }
  want_write_ = true;
  connecting_ = true;
  connect_deadline_ =
      Clock::now() + std::chrono::milliseconds(options_.connect_timeout_ms);
}

void RpcChannel::OnEvent(const net::Poller::Event& event,
                         std::vector<Outcome>* outcomes) {
  if (fd_ < 0 || event.fd != fd_) return;
  if (connecting_) {
    if (!event.writable && !event.error) return;
    auto done = net::ConnectDone(fd_);
    if (!done.ok()) {
      Fail(Status::Internal("connect " + Peer() + ": " +
                            done.status().message()),
           outcomes);
      return;
    }
    if (!*done) return;  // Stale readiness: the handshake is still going.
    connecting_ = false;
    WriteQueued(outcomes);
    return;
  }
  if (event.readable) {
    ReadReplies(outcomes);
    if (fd_ < 0) return;
  }
  if (event.error) {
    Fail(Status::Internal("rpc connection to " + Peer() + " failed"),
         outcomes);
    return;
  }
  if (event.writable) WriteQueued(outcomes);
}

void RpcChannel::WriteQueued(std::vector<Outcome>* outcomes) {
  size_t written = 0;
  while (written < out_.size()) {
    auto n = net::WriteSome(fd_, out_.data() + written, out_.size() - written);
    if (!n.ok()) {
      Fail(Status::Internal("rpc send to " + Peer() + ": " +
                            n.status().message()),
           outcomes);
      return;
    }
    if (*n < 0) break;  // Socket buffer full: wait for writability.
    written += static_cast<size_t>(*n);
  }
  out_.erase(0, written);
  const bool want_write = !out_.empty();
  if (want_write != want_write_ &&
      poller_->Update(fd_, /*want_read=*/true, want_write).ok()) {
    want_write_ = want_write;
  }
}

void RpcChannel::ReadReplies(std::vector<Outcome>* outcomes) {
  char buffer[16384];
  for (;;) {
    auto n = net::ReadSome(fd_, buffer, sizeof(buffer));
    if (!n.ok()) {
      Fail(Status::Internal("rpc read from " + Peer() + ": " +
                            n.status().message()),
           outcomes);
      return;
    }
    if (*n < 0) break;  // Drained.
    if (*n == 0) {
      Fail(Status::Internal("rpc peer " + Peer() + " closed the connection"),
           outcomes);
      return;
    }
    decoder_.Append(buffer, static_cast<size_t>(*n));
    if (static_cast<size_t>(*n) < sizeof(buffer)) break;
  }
  for (;;) {
    FrameDecoder::Result result = decoder_.Next();
    if (result.state == FrameDecoder::State::kNeedMore) return;
    if (result.state == FrameDecoder::State::kError) {
      Fail(Status::Internal("rpc protocol error from " + Peer() + ": " +
                            result.error_detail),
           outcomes);
      return;
    }
    const auto it = pending_.find(result.frame.request_id);
    if (it == pending_.end()) {
      // Not a call of ours (a server-side protocol error carries id 0): the
      // two ends disagree about the stream. Unrecoverable.
      Fail(Status::Internal("rpc response id mismatch from " + Peer()),
           outcomes);
      return;
    }
    pending_.erase(it);
    const uint64_t id = result.frame.request_id;
    outcomes->push_back(Outcome{id, std::move(result.frame)});
  }
}

void RpcChannel::CheckDeadlines(Clock::time_point now,
                                std::vector<Outcome>* outcomes) {
  if (connecting_ && now > connect_deadline_) {
    Fail(Status::Aborted("connect " + Peer() + " timed out after " +
                         std::to_string(options_.connect_timeout_ms) + " ms"),
         outcomes);
    return;
  }
  if (fd_ >= 0 && !pending_.empty() && now > pending_.begin()->second) {
    Fail(Status::Aborted("rpc call to " + Peer() + " timed out after " +
                         std::to_string(options_.call_timeout_ms) + " ms"),
         outcomes);
  }
}

RpcChannel::Clock::time_point RpcChannel::next_deadline() const {
  Clock::time_point next = Clock::time_point::max();
  if (connecting_) next = connect_deadline_;
  if (fd_ >= 0 && !pending_.empty()) {
    next = std::min(next, pending_.begin()->second);
  }
  return next;
}

void RpcChannel::Fail(const Status& status, std::vector<Outcome>* outcomes) {
  Close();
  for (const auto& [id, deadline] : pending_) {
    outcomes->push_back(Outcome{id, status});
  }
  pending_.clear();
  out_.clear();
  dirty_ = false;
}

void RpcChannel::Close() {
  if (fd_ >= 0) {
    poller_->Remove(fd_);
    net::CloseFd(fd_);
  }
  fd_ = -1;
  connecting_ = false;
  want_write_ = false;
}

std::string RpcChannel::Peer() const {
  return options_.host + ":" + std::to_string(options_.port);
}

}  // namespace juggler::rpc
