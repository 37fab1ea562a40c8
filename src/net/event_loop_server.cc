#include "net/event_loop_server.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/thread_name.h"
#include "net/socket_util.h"

namespace juggler::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Loop tick: upper bound on stop latency and idle-sweep granularity.
constexpr int kLoopTickMs = 50;

}  // namespace

EventLoopServer::EventLoopServer(const Options& options,
                                 std::unique_ptr<const Codec> codec,
                                 LoopAgent* agent)
    : options_(options),
      codec_(std::move(codec)),
      agent_(agent),
      mu_(lockdiag::RegisterLockClass("net.EventLoopServer.completions",
                                      lockdiag::kRankNet)) {}

EventLoopServer::~EventLoopServer() { Stop(); }

Status EventLoopServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  auto listen_fd = ListenTcp(options_.host, options_.port);
  if (!listen_fd.ok()) return listen_fd.status();
  listen_fd_ = *listen_fd;
  auto port = LocalPort(listen_fd_);
  if (!port.ok()) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return port.status();
  }
  bound_port_ = *port;

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("pipe2: ") + std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];

  poller_ = Poller::Create(options_.force_poll);
  backend_ = poller_->backend_name();
  JUGGLER_RETURN_IF_ERROR(poller_->Add(listen_fd_, /*want_read=*/true,
                                       /*want_write=*/false));
  JUGGLER_RETURN_IF_ERROR(poller_->Add(wake_read_fd_, /*want_read=*/true,
                                       /*want_write=*/false));

  pool_ = std::make_unique<service::ThreadPool>(service::ThreadPool::Options{
      options_.num_handler_threads, options_.dispatch_queue_capacity});
  loop_thread_ = std::thread([this] {
    SetCurrentThreadName("jg-loop");
    LoopMain();
  });
  return Status::OK();
}

void EventLoopServer::Stop() {
  if (!started_.load()) return;
  stop_.store(true);
  if (loop_thread_.joinable()) {
    WakeLoop();
    loop_thread_.join();
  }
  // After the loop exits no new work is dispatched; drain jobs that are
  // still running (their completions land in completions_ and are dropped).
  if (pool_) pool_->Shutdown();
  CloseFd(listen_fd_);
  CloseFd(wake_read_fd_);
  CloseFd(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
}

EventLoopServer::Stats EventLoopServer::GetStats() const {
  Stats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.active = active_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.fast_path = fast_path_.load(std::memory_order_relaxed);
  stats.overload_rejected =
      overload_rejected_.load(std::memory_order_relaxed);
  stats.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  stats.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  stats.slow_read_closed = slow_read_closed_.load(std::memory_order_relaxed);
  stats.slow_write_closed =
      slow_write_closed_.load(std::memory_order_relaxed);
  return stats;
}

void EventLoopServer::WakeLoop() {
  const char byte = 'w';
  // EAGAIN means the pipe already holds a pending wake-up; that is enough.
  ssize_t n;
  do {
    n = ::write(wake_write_fd_, &byte, 1);
  } while (n < 0 && errno == EINTR);
}

void EventLoopServer::LoopMain() {
  std::vector<Poller::Event> events;
  if (agent_ != nullptr) agent_->OnStart(poller_.get());
  while (!stop_.load(std::memory_order_acquire)) {
    if (Status status = poller_->Wait(kLoopTickMs, &events); !status.ok()) {
      break;  // Poller broken (fd table exhausted, ...): shut down.
    }
    for (const Poller::Event& event : events) {
      if (event.fd == wake_read_fd_) {
        // A short read drained the pipe; anything written since wakes the
        // next wait (both backends are level-triggered).
        char drain[64];
        ssize_t n;
        do {
          n = ::read(wake_read_fd_, drain, sizeof(drain));
        } while (n == static_cast<ssize_t>(sizeof(drain)) ||
                 (n < 0 && errno == EINTR));
        continue;
      }
      if (event.fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      const auto connection = connection_by_fd_.find(event.fd);
      if (connection != connection_by_fd_.end()) {
        HandleConnectionEvent(event, connection->second);
      } else if (agent_ != nullptr) {
        // The agent's own descriptor, or one closed earlier this batch
        // (which the agent does not know either).
        agent_->OnEvent(event);
      }
    }
    ApplyCompletions();
    if (agent_ != nullptr) agent_->AfterEvents();
    SweepConnections();
  }
  if (agent_ != nullptr) agent_->OnStop();
  // Loop exit: close every connection (the loop thread owns them all).
  for (auto& [id, conn] : connections_) {
    poller_->Remove(conn->fd);
    CloseFd(conn->fd);
    active_.fetch_sub(1, std::memory_order_relaxed);
  }
  connections_.clear();
  connection_by_fd_.clear();
}

void EventLoopServer::AcceptPending() {
  for (;;) {
    auto accepted = AcceptNonBlocking(listen_fd_);
    if (!accepted.ok()) return;  // Listener broken; keep serving open conns.
    const int fd = *accepted;
    if (fd < 0) return;  // Accept queue drained.
    accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>();
    conn->decoder = codec_->NewDecoder();
    if (connections_.size() >= options_.max_connections) {
      // Reject at the edge with a reply rather than a silent RST.
      std::string bytes;
      conn->decoder->AppendOverload(&bytes);
      (void)WriteSome(fd, bytes.data(), bytes.size()).ok();
      CloseFd(fd);
      overload_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    SetTcpNoDelay(fd);
    conn->fd = fd;
    conn->id = next_connection_id_++;
    conn->last_activity = Clock::now();
    if (!poller_->Add(fd, /*want_read=*/true, /*want_write=*/false).ok()) {
      CloseFd(fd);
      continue;
    }
    connection_by_fd_[fd] = conn->id;
    active_.fetch_add(1, std::memory_order_relaxed);
    connections_.emplace(conn->id, std::move(conn));
  }
}

EventLoopServer::Connection* EventLoopServer::FindConnection(uint64_t id) {
  const auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : it->second.get();
}

void EventLoopServer::CloseConnection(uint64_t id) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  poller_->Remove(conn->fd);
  connection_by_fd_.erase(conn->fd);
  CloseFd(conn->fd);
  active_.fetch_sub(1, std::memory_order_relaxed);
  connections_.erase(it);
}

void EventLoopServer::HandleConnectionEvent(const Poller::Event& event,
                                            uint64_t id) {
  Connection* conn = FindConnection(id);
  if (conn == nullptr) return;

  if (event.error) {
    CloseConnection(id);
    return;
  }

  if (event.readable && !conn->read_closed && !conn->read_paused) {
    char buffer[16384];
    for (;;) {
      auto n = ReadSome(conn->fd, buffer, sizeof(buffer));
      if (!n.ok()) {  // ECONNRESET and friends.
        CloseConnection(id);
        return;
      }
      if (*n < 0) break;  // Drained (EAGAIN).
      if (*n == 0) {      // Orderly shutdown from the peer.
        conn->read_closed = true;
        break;
      }
      conn->decoder->Append(buffer, static_cast<size_t>(*n));
      conn->last_activity = Clock::now();
      if (conn->decoder->buffered_bytes() > codec_->read_pause_bytes()) {
        conn->read_paused = true;
        break;
      }
      // A short read took everything queued; the poller reports later
      // bytes, or the peer's EOF, on the next wait. RpcChannel::ReadReplies
      // stops on the same rule.
      if (static_cast<size_t>(*n) < sizeof(buffer)) break;
    }
    PumpRequests(conn);
  }

  FlushWrites(conn);
}

void EventLoopServer::PumpRequests(Connection* conn) {
  Decoder& decoder = *conn->decoder;
  const uint64_t outer_pump = pumping_id_;
  pumping_id_ = conn->id;
  while (!conn->handler_inflight && !conn->close_after_write) {
    const Decoder::State state = decoder.Next();
    if (state == Decoder::State::kNeedMore) break;
    if (state == Decoder::State::kError) {
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      decoder.AppendProtocolError(&conn->out);
      conn->close_after_write = true;
      conn->read_closed = true;  // Framing lost; never decode this fd again.
      break;
    }

    requests_.fetch_add(1, std::memory_order_relaxed);
    conn->last_activity = Clock::now();
    conn->read_start = {};  // Complete request: the next one gets a fresh clock.
    // The slot is taken before the codec runs: a deferred answer may reply
    // right away (a validation error), which frees it again.
    conn->handler_inflight = true;
    switch (decoder.AnswerInline(Deferred(this, conn->id), &conn->out)) {
      case Decoder::Answer::kInline:
        conn->handler_inflight = false;
        fast_path_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Decoder::Answer::kDeferred:
        fast_path_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Decoder::Answer::kPool:
        conn->handler_inflight = false;
        DispatchToPool(conn);
        break;
    }
    if (!decoder.keep_alive()) conn->close_after_write = true;
  }
  pumping_id_ = outer_pump;

  // Header-read deadline: armed while a partial request sits in the buffer,
  // disarmed when the buffer drains. last_activity is *not* the anchor —
  // trickled bytes refresh it, which is exactly the slowloris hole.
  if (decoder.buffered_bytes() == 0) {
    conn->read_start = {};
  } else if (conn->read_start == Clock::time_point{}) {
    conn->read_start = Clock::now();
  }
}

void EventLoopServer::DispatchToPool(Connection* conn) {
  Status submitted = pool_->Submit(
      [this, id = conn->id, job = conn->decoder->TakeJob()] {
        Completion completion{id, job()};
        {
          MutexLock lock(mu_);
          completions_.push_back(std::move(completion));
        }
        WakeLoop();
      });
  if (!submitted.ok()) {
    // Full dispatch queue (or shutdown): shed at the edge, immediately.
    overload_rejected_.fetch_add(1, std::memory_order_relaxed);
    conn->decoder->AppendOverload(&conn->out);
    return;
  }
  conn->handler_inflight = true;
}

void EventLoopServer::ApplyCompletions() {
  std::vector<Completion> ready;
  {
    MutexLock lock(mu_);
    ready.swap(completions_);
  }
  for (Completion& completion : ready) {
    Connection* conn = FindConnection(completion.connection_id);
    if (conn == nullptr) continue;  // Connection died while handling.
    FinishInflight(conn, std::move(completion.bytes));
  }
}

void EventLoopServer::ReplyDeferred(uint64_t connection_id,
                                    std::string bytes) {
  Connection* conn = FindConnection(connection_id);
  // Gone (client closed meanwhile) or not waiting: nothing to answer.
  if (conn == nullptr || !conn->handler_inflight) return;
  FinishInflight(conn, std::move(bytes));
}

void EventLoopServer::FinishInflight(Connection* conn, std::string bytes) {
  if (conn->out.empty()) {
    conn->out = std::move(bytes);
  } else {
    conn->out += bytes;
  }
  conn->handler_inflight = false;
  conn->last_activity = Clock::now();
  if (conn->read_paused &&
      conn->decoder->buffered_bytes() <= codec_->read_pause_bytes()) {
    conn->read_paused = false;
  }
  // Replied from inside this connection's own pump: it continues there.
  if (conn->id == pumping_id_) return;
  PumpRequests(conn);  // Pipelined requests waiting in the buffer.
  FlushWrites(conn);
}

void EventLoopServer::FlushWrites(Connection* conn) {
  const uint64_t id = conn->id;
  size_t written = 0;
  while (written < conn->out.size()) {
    auto n = WriteSome(conn->fd, conn->out.data() + written,
                       conn->out.size() - written);
    if (!n.ok()) {  // EPIPE/ECONNRESET: peer is gone.
      CloseConnection(id);
      return;
    }
    if (*n < 0) break;  // Socket buffer full (EAGAIN).
    written += static_cast<size_t>(*n);
  }
  conn->out.erase(0, written);

  // Response-write deadline: armed while bytes are queued for a client that
  // is not draining them, disarmed once the buffer empties.
  if (conn->out.empty()) {
    conn->write_start = {};
  } else if (conn->write_start == Clock::time_point{}) {
    conn->write_start = Clock::now();
  }

  if (conn->out.empty() && !conn->handler_inflight &&
      (conn->close_after_write ||
       (conn->read_closed && conn->decoder->buffered_bytes() == 0))) {
    CloseConnection(id);
    return;
  }

  // Keep the poller's interest set in sync; a paused reader must drop
  // EPOLLIN or level-triggered readiness would spin the loop.
  const bool want_read = !conn->read_closed && !conn->read_paused;
  const bool want_write = !conn->out.empty();
  if (want_read != conn->reg_read || want_write != conn->want_write) {
    if (poller_->Update(conn->fd, want_read, want_write).ok()) {
      conn->reg_read = want_read;
      conn->want_write = want_write;
    }
  }
}

void EventLoopServer::SweepConnections() {
  const auto now = Clock::now();
  const auto expired = [now](Clock::time_point start, int timeout_ms) {
    return timeout_ms > 0 && start != Clock::time_point{} &&
           now - start > std::chrono::milliseconds(timeout_ms);
  };
  std::vector<uint64_t> idle;
  std::vector<uint64_t> write_stalled;
  std::vector<uint64_t> read_stalled;
  for (const auto& [id, conn] : connections_) {
    const bool quiet = !conn->handler_inflight && conn->out.empty();
    if (quiet && expired(conn->last_activity, options_.idle_timeout_ms)) {
      idle.push_back(id);
    } else if (expired(conn->write_start, options_.write_timeout_ms)) {
      write_stalled.push_back(id);
    } else if (!conn->handler_inflight &&
               expired(conn->read_start, options_.header_read_timeout_ms)) {
      read_stalled.push_back(id);
    }
  }
  for (const uint64_t id : idle) {
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(id);
  }
  for (const uint64_t id : write_stalled) {
    // The client is not draining its socket; a late reply would only sit
    // in the buffer, so close outright.
    slow_write_closed_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(id);
  }
  for (const uint64_t id : read_stalled) {
    Connection* conn = FindConnection(id);
    slow_read_closed_.fetch_add(1, std::memory_order_relaxed);
    conn->decoder->AppendSlowRead(&conn->out);
    conn->close_after_write = true;
    conn->read_closed = true;  // Mid-request framing: never decode this again.
    conn->read_start = {};
    FlushWrites(conn);
  }
}

}  // namespace juggler::net
