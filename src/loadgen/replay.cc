#include "loadgen/replay.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <thread>
#include <utility>

#include "common/mutex.h"
#include "common/parse.h"
#include "net/socket_util.h"

namespace juggler::loadgen {

namespace {

using Clock = std::chrono::steady_clock;

/// Deadlines of one dial and of one request/response exchange.
constexpr int kConnectTimeoutMs = 2'000;
constexpr int kResponseTimeoutMs = 5'000;

/// Slowloris clients: bytes trickle every kSlowTrickleMs; the server must
/// reap the connection within kSlowHoldMs + its own deadline.
constexpr int kSlowTrickleMs = 40;
constexpr int kSlowHoldMs = 3'000;

/// Concurrent dedicated slow-client threads; excess slow events are demoted
/// to plain valid requests.
constexpr int kMaxSlowClients = 8;

int RemainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(std::max<int64_t>(0, left.count()));
}

std::string BuildRequest(const std::string& method, const std::string& target,
                         const std::string& host, const std::string& body,
                         bool keep_alive) {
  std::string request = method;
  request.append(" ").append(target).append(" HTTP/1.1\r\nHost: ");
  request.append(host).append("\r\n");
  if (method == "POST" || !body.empty()) {
    request.append("Content-Type: application/json\r\nContent-Length: ");
    request.append(std::to_string(body.size())).append("\r\n");
  }
  request.append(keep_alive ? "Connection: keep-alive\r\n"
                            : "Connection: close\r\n");
  request.append("\r\n");
  request.append(body);
  return request;
}

Status SendAll(int fd, const std::string& data, Clock::time_point deadline) {
  size_t sent = 0;
  while (sent < data.size()) {
    auto wrote = net::WriteSome(fd, data.data() + sent, data.size() - sent);
    if (!wrote.ok()) return wrote.status();
    if (*wrote > 0) {
      sent += static_cast<size_t>(*wrote);
      continue;
    }
    const int remaining = RemainingMs(deadline);
    if (remaining <= 0) return Status::Aborted("request write timeout");
    auto ready = net::WaitFd(fd, /*want_write=*/true, remaining);
    if (!ready.ok()) return ready.status();
    if (!*ready) return Status::Aborted("request write timeout");
  }
  return Status::OK();
}

struct WireResponse {
  int status = 0;
  bool retry_after = false;
  bool close = false;
  std::string body;
};

std::string ToLower(std::string text) {
  for (char& c : text) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return text;
}

std::string Trim(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && (text[begin] == ' ' || text[begin] == '\t')) ++begin;
  while (end > begin && (text[end - 1] == ' ' || text[end - 1] == '\t')) --end;
  return text.substr(begin, end - begin);
}

/// Parses the status line + headers in data[0, header_end). InvalidArgument
/// means the peer sent something that is not a well-formed HTTP response —
/// exactly the malformed_responses bucket.
Status ParseHead(const std::string& data, size_t header_end,
                 WireResponse* out, size_t* content_length, bool* have_cl) {
  const size_t line_end = data.find("\r\n");
  if (line_end == std::string::npos || line_end > header_end) {
    return Status::InvalidArgument("missing status line");
  }
  const std::string line = data.substr(0, line_end);
  if (line.size() < 12 || line.compare(0, 7, "HTTP/1.") != 0 ||
      line[8] != ' ') {
    return Status::InvalidArgument("bad status line: " + line);
  }
  int status = 0;
  for (size_t i = 9; i < 12; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(line[i]))) {
      return Status::InvalidArgument("bad status code: " + line);
    }
    status = status * 10 + (line[i] - '0');
  }
  out->status = status;

  size_t pos = line_end + 2;
  while (pos < header_end) {
    size_t next = data.find("\r\n", pos);
    if (next == std::string::npos || next > header_end) next = header_end;
    const std::string header = data.substr(pos, next - pos);
    pos = next + 2;
    const size_t colon = header.find(':');
    if (colon == std::string::npos) continue;
    const std::string name = ToLower(Trim(header.substr(0, colon)));
    const std::string value = Trim(header.substr(colon + 1));
    if (name == "content-length") {
      uint64_t length = 0;
      if (!ParseUnsigned(value, &length) || length > (64u << 20)) {
        return Status::InvalidArgument("bad Content-Length: " + value);
      }
      *content_length = static_cast<size_t>(length);
      *have_cl = true;
    } else if (name == "retry-after") {
      out->retry_after = true;
    } else if (name == "connection") {
      if (ToLower(value).find("close") != std::string::npos) {
        out->close = true;
      }
    }
  }
  return Status::OK();
}

/// Reads one complete response. Error codes double as classification:
///  - kInvalidArgument: peer bytes were not a well-formed/complete response;
///  - kNotFound: clean EOF before any bytes (stale keep-alive connection);
///  - kAborted / anything else: transport failure or timeout.
Status ReadResponse(int fd, Clock::time_point deadline, WireResponse* out) {
  std::string data;
  size_t header_end = std::string::npos;
  size_t content_length = 0;
  bool have_cl = false;
  bool head_parsed = false;
  bool eof = false;
  char buffer[8192];
  while (true) {
    if (!head_parsed) {
      header_end = data.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        JUGGLER_RETURN_IF_ERROR(
            ParseHead(data, header_end, out, &content_length, &have_cl));
        head_parsed = true;
      } else if (data.size() > (1u << 20)) {
        return Status::InvalidArgument("response header never terminated");
      }
    }
    if (head_parsed) {
      const size_t body_start = header_end + 4;
      if (have_cl) {
        if (data.size() >= body_start + content_length) {
          out->body = data.substr(body_start, content_length);
          return Status::OK();
        }
        if (eof) return Status::InvalidArgument("response body truncated");
      } else {
        // No Content-Length: body is delimited by connection close.
        if (eof) {
          out->body = data.substr(body_start);
          out->close = true;
          return Status::OK();
        }
      }
    } else if (eof) {
      if (data.empty()) return Status::NotFound("peer closed, no response");
      return Status::InvalidArgument("response truncated mid-header");
    }

    const int remaining = RemainingMs(deadline);
    if (remaining <= 0) return Status::Aborted("response timeout");
    auto ready = net::WaitFd(fd, /*want_write=*/false, remaining);
    if (!ready.ok()) return ready.status();
    if (!*ready) return Status::Aborted("response timeout");
    auto n = net::ReadSome(fd, buffer, sizeof(buffer));
    if (!n.ok()) return n.status();
    if (*n == 0) {
      eof = true;
    } else if (*n > 0) {
      data.append(buffer, static_cast<size_t>(*n));
    }
  }
}

/// Shared replay state. `stats_mu` is a leaf lock: taken only for counter
/// updates, never across any socket call.
struct SharedState {
  SharedState(const Trace& trace, const std::vector<LoadEvent>& events_in,
              const ReplayOptions& options_in)
      : events(events_in),
        options(options_in),
        stats_mu(lockdiag::RegisterLockClass("loadgen.Replay.stats",
                                             lockdiag::kRankLeaf)) {
    phases.resize(trace.phases.size());
    for (size_t i = 0; i < trace.phases.size(); ++i) {
      phases[i].name = trace.phases[i].name;
      phases[i].duration_s = static_cast<double>(trace.phases[i].duration_ms) *
                             options.time_scale / 1'000.0;
    }
  }

  const std::vector<LoadEvent>& events;
  const ReplayOptions& options;
  std::atomic<size_t> next{0};
  std::atomic<int> slow_active{0};
  Clock::time_point start;

  Mutex stats_mu ACQUIRED_AFTER(lockdiag::kCacheOrder);
  std::vector<PhaseResult> phases GUARDED_BY(stats_mu);
};

/// One request/response exchange over a (possibly reused) keep-alive
/// connection. A stale reused connection — the server closed it between
/// requests — retries once on a fresh dial; that is keep-alive bookkeeping,
/// not a server failure.
Status Exchange(SharedState* state, const std::string& request, int* fd,
                WireResponse* out) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool reused = *fd >= 0;
    if (!reused) {
      auto connected = net::ConnectTcp(state->options.host,
                                       state->options.port,
                                       kConnectTimeoutMs);
      if (!connected.ok()) return connected.status();
      *fd = *connected;
    }
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(kResponseTimeoutMs);
    Status status = SendAll(*fd, request, deadline);
    if (status.ok()) {
      *out = WireResponse{};
      status = ReadResponse(*fd, deadline, out);
      if (status.ok()) {
        if (out->close) {
          net::CloseFd(*fd);
          *fd = -1;
        }
        return status;
      }
    }
    net::CloseFd(*fd);
    *fd = -1;
    // Only a reused connection that died before yielding any bytes earns a
    // retry; a fresh-connection failure is the server's answer.
    const bool stale = reused && (status.code() == StatusCode::kNotFound ||
                                  status.code() == StatusCode::kInternal);
    if (!stale) {
      if (status.code() == StatusCode::kNotFound) {
        return Status::Aborted("peer closed without responding");
      }
      return status;
    }
  }
  return Status::Aborted("keep-alive retry failed");
}

void HandleValid(SharedState* state, const LoadEvent& event, int* fd) {
  const std::string request =
      BuildRequest("POST", event.target, state->options.host, event.body,
                   /*keep_alive=*/true);
  const auto t0 = Clock::now();
  WireResponse wire;
  const Status status = Exchange(state, request, fd, &wire);
  const double latency_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  MutexLock lock(state->stats_mu);
  PhaseResult& phase = state->phases[event.phase];
  ++phase.sent;
  if (!status.ok()) {
    if (status.code() == StatusCode::kInvalidArgument) {
      ++phase.malformed_responses;
    } else {
      ++phase.transport_errors;
    }
    return;
  }
  if (wire.status >= 200 && wire.status < 300) {
    ++phase.ok2xx;
    phase.latencies_ms.push_back(latency_ms);
  } else if (wire.status == 503) {
    if (wire.retry_after) {
      ++phase.shed503;
    } else {
      ++phase.retry_after_missing;
    }
  } else if (wire.status >= 400 && wire.status < 500) {
    ++phase.errors4xx;
  } else {
    ++phase.errors5xx;
  }
}

void HandleMalformed(SharedState* state, const LoadEvent& event) {
  auto connected =
      net::ConnectTcp(state->options.host, state->options.port,
                      kConnectTimeoutMs);
  if (connected.ok()) {
    const int fd = *connected;
    const auto deadline = Clock::now() + std::chrono::milliseconds(500);
    (void)SendAll(fd, event.body, deadline);
    // Drain whatever the server answers (error response or close); any
    // reaction is acceptable for hostile bytes — the SLO invariants only
    // require that *valid* traffic is unaffected.
    char buffer[1024];
    while (RemainingMs(deadline) > 0) {
      auto ready = net::WaitFd(fd, /*want_write=*/false, RemainingMs(deadline));
      if (!ready.ok() || !*ready) break;
      auto n = net::ReadSome(fd, buffer, sizeof(buffer));
      if (!n.ok() || *n == 0) break;
    }
    net::CloseFd(fd);
  }
  MutexLock lock(state->stats_mu);
  ++state->phases[event.phase].malformed_sent;
}

/// Slowloris: trickle a never-completing request and expect the server's
/// header-read deadline to reap the connection (408 and/or close) within
/// kSlowHoldMs. Blocks this worker for the duration; concurrency is
/// capped by the caller.
void HandleSlow(SharedState* state, const LoadEvent& event) {
  auto connected =
      net::ConnectTcp(state->options.host, state->options.port,
                      kConnectTimeoutMs);
  if (!connected.ok()) {
    MutexLock lock(state->stats_mu);
    ++state->phases[event.phase].slow_sent;
    ++state->phases[event.phase].slow_reaped;  // Nothing left to reap.
    return;
  }
  const int fd = *connected;
  const std::string partial =
      "POST " + event.target + " HTTP/1.1\r\nHost: " + state->options.host +
      "\r\nContent-Length: " + std::to_string(event.body.size()) +
      "\r\nX-Trickle: " + std::string(512, 'x') + "\r\n";
  // Never send the blank line: the request stays incomplete however much of
  // `partial` gets through.
  size_t sent = 0;
  bool reaped = false;
  const auto deadline = Clock::now() + std::chrono::milliseconds(kSlowHoldMs);
  while (Clock::now() < deadline && !reaped) {
    auto ready = net::WaitFd(fd, /*want_write=*/false, kSlowTrickleMs);
    if (!ready.ok()) {
      reaped = true;  // Error state (e.g. RST): the server dropped us.
      break;
    }
    if (*ready) {
      char buffer[512];
      auto n = net::ReadSome(fd, buffer, sizeof(buffer));
      if (!n.ok() || *n == 0) reaped = true;  // 408 drained and/or closed.
      continue;
    }
    if (sent < partial.size()) {
      auto wrote = net::WriteSome(fd, partial.data() + sent, 1);
      if (!wrote.ok()) {
        reaped = true;
        break;
      }
      if (*wrote > 0) ++sent;
    }
  }
  if (!reaped) {
    // Grace period: the reap may be in flight.
    const auto grace =
        Clock::now() + std::chrono::milliseconds(kResponseTimeoutMs);
    while (Clock::now() < grace && !reaped) {
      auto ready = net::WaitFd(fd, /*want_write=*/false, 100);
      if (!ready.ok()) {
        reaped = true;
        break;
      }
      if (!*ready) continue;
      char buffer[512];
      auto n = net::ReadSome(fd, buffer, sizeof(buffer));
      if (!n.ok() || *n == 0) reaped = true;
    }
  }
  net::CloseFd(fd);
  MutexLock lock(state->stats_mu);
  PhaseResult& phase = state->phases[event.phase];
  ++phase.slow_sent;
  if (reaped) {
    ++phase.slow_reaped;
  } else {
    ++phase.slow_hung;
  }
}

void WorkerLoop(SharedState* state) {
  int fd = -1;
  while (true) {
    const size_t index =
        state->next.fetch_add(1, std::memory_order_relaxed);
    if (index >= state->events.size()) break;
    const LoadEvent& event = state->events[index];
    const auto due =
        state->start +
        std::chrono::microseconds(static_cast<int64_t>(
            static_cast<double>(event.offset_ms) * state->options.time_scale *
            1'000.0));
    std::this_thread::sleep_until(due);
    switch (event.kind) {
      case EventKind::kValid:
      case EventKind::kObserve:
        HandleValid(state, event, &fd);
        break;
      case EventKind::kMalformed:
        HandleMalformed(state, event);
        break;
      case EventKind::kSlow: {
        // Cap concurrent slowloris holds; excess slow events degrade to
        // valid requests rather than silently dropping load.
        int active = state->slow_active.load(std::memory_order_relaxed);
        bool claimed = false;
        while (active < kMaxSlowClients) {
          if (state->slow_active.compare_exchange_weak(
                  active, active + 1, std::memory_order_relaxed)) {
            claimed = true;
            break;
          }
        }
        if (claimed) {
          HandleSlow(state, event);
          state->slow_active.fetch_sub(1, std::memory_order_relaxed);
        } else {
          HandleValid(state, event, &fd);
        }
        break;
      }
    }
  }
  if (fd >= 0) net::CloseFd(fd);
}

}  // namespace

StatusOr<std::vector<PhaseResult>> RunReplay(
    const Trace& trace, const std::vector<LoadEvent>& events,
    const ReplayOptions& options) {
  if (options.port == 0) {
    return Status::InvalidArgument("replay needs a target port");
  }
  if (options.workers <= 0 || options.time_scale <= 0.0) {
    return Status::InvalidArgument("replay needs workers > 0, time_scale > 0");
  }
  SharedState state(trace, events, options);
  state.start = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(options.workers));
  for (int i = 0; i < options.workers; ++i) {
    workers.emplace_back(WorkerLoop, &state);
  }
  for (std::thread& worker : workers) worker.join();
  MutexLock lock(state.stats_mu);
  return std::move(state.phases);
}

StatusOr<SimpleResponse> HttpFetch(const std::string& host, uint16_t port,
                                   const std::string& method,
                                   const std::string& target,
                                   const std::string& body, int timeout_ms) {
  auto connected = net::ConnectTcp(host, port, timeout_ms);
  if (!connected.ok()) return connected.status();
  const int fd = *connected;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const std::string request =
      BuildRequest(method, target, host, body, /*keep_alive=*/false);
  Status status = SendAll(fd, request, deadline);
  WireResponse wire;
  if (status.ok()) status = ReadResponse(fd, deadline, &wire);
  net::CloseFd(fd);
  JUGGLER_RETURN_IF_ERROR(status);
  SimpleResponse response;
  response.status = wire.status;
  response.body = std::move(wire.body);
  return response;
}

}  // namespace juggler::loadgen
