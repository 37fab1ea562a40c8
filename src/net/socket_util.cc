#include "net/socket_util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace juggler::net {

namespace {

/// Pending-connection queue length passed to listen(2).
constexpr int kListenBacklog = 128;

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

StatusOr<int> ListenTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");

  const int enable = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable)) !=
      0) {
    const Status status = Errno("setsockopt(SO_REUSEADDR)");
    CloseFd(fd);
    return status;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Errno("bind " + host + ":" + std::to_string(port));
    CloseFd(fd);
    return status;
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const Status status = Errno("listen");
    CloseFd(fd);
    return status;
  }
  if (Status status = SetNonBlocking(fd); !status.ok()) {
    CloseFd(fd);
    return status;
  }
  return fd;
}

StatusOr<uint16_t> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
  return Status::OK();
}

void SetTcpNoDelay(int fd) {
  const int enable = 1;
  // Best effort: latency tuning, not correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
}

StatusOr<int> AcceptNonBlocking(int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    // A connection that died between epoll notification and accept is not a
    // server error; report "nothing to accept".
    if (errno == ECONNABORTED) return -1;
    return Errno("accept");
  }
}

StatusOr<int> StartConnectTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return Errno("socket");

  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINPROGRESS) {
    const Status status =
        Errno("connect " + host + ":" + std::to_string(port));
    CloseFd(fd);
    return status;
  }
  SetTcpNoDelay(fd);
  return fd;
}

StatusOr<bool> ConnectDone(int fd) {
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
    return Errno("getsockopt(SO_ERROR)");
  }
  if (so_error != 0) {
    return Status::Internal(std::strerror(so_error));
  }
  // No pending error yet says nothing on its own: a writable readiness the
  // caller saw may be stale, so only a known peer proves the handshake done.
  sockaddr_in peer{};
  socklen_t peer_len = sizeof(peer);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) == 0) {
    return true;
  }
  if (errno == ENOTCONN) return false;
  return Errno("getpeername");
}

StatusOr<int> ConnectTcp(const std::string& host, uint16_t port,
                         int timeout_ms) {
  auto fd = StartConnectTcp(host, port);
  if (!fd.ok()) return fd.status();
  // Non-blocking connect in flight: writability signals the outcome.
  auto ready = WaitFd(*fd, /*want_write=*/true, timeout_ms);
  if (!ready.ok()) {
    CloseFd(*fd);
    return ready.status();
  }
  if (!*ready) {
    CloseFd(*fd);
    return Status::Aborted("connect " + host + ":" + std::to_string(port) +
                           " timed out after " + std::to_string(timeout_ms) +
                           " ms");
  }
  auto done = ConnectDone(*fd);
  if (!done.ok() || !*done) {
    CloseFd(*fd);
    return Status::Internal("connect " + host + ":" + std::to_string(port) +
                            ": " +
                            (done.ok() ? std::string("not connected")
                                       : done.status().message()));
  }
  return fd;
}

StatusOr<bool> WaitFd(int fd, bool want_write, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = want_write ? POLLOUT : POLLIN;
  for (;;) {
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (n == 0) return false;  // Timeout.
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) {
      return Status::Internal("fd error while waiting for " +
                              std::string(want_write ? "write" : "read"));
    }
    // POLLHUP with POLLIN still delivers the buffered bytes + EOF; report
    // ready and let the read observe the close.
    return true;
  }
}

StatusOr<int> ReadSome(int fd, char* buffer, size_t size) {
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, size, 0);
    if (n >= 0) return static_cast<int>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    return Errno("recv");
  }
}

StatusOr<int> WriteSome(int fd, const char* data, size_t size) {
  for (;;) {
    // MSG_NOSIGNAL: a peer that closed mid-response must surface as an error
    // Status on this connection, not kill the process with SIGPIPE.
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<int>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    return Errno("send");
  }
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace juggler::net
