#ifndef JUGGLER_NET_SOCKET_UTIL_H_
#define JUGGLER_NET_SOCKET_UTIL_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace juggler::net {

/// \brief Thin Status-returning wrappers over the POSIX socket calls.
///
/// All raw socket syscalls in the repository live in src/net/ (enforced by
/// the `raw-socket` lint rule); everything above this file works with file
/// descriptors and Status.

/// Creates a non-blocking, close-on-exec listening TCP socket bound to
/// `host:port` (SO_REUSEADDR set; `host` must be a numeric IPv4 address such
/// as "127.0.0.1" or "0.0.0.0"; port 0 asks the kernel for an ephemeral
/// port — read it back with LocalPort()).
[[nodiscard]] StatusOr<int> ListenTcp(const std::string& host, uint16_t port,
                                      int backlog = 128);

/// The port a bound socket actually listens on.
[[nodiscard]] StatusOr<uint16_t> LocalPort(int fd);

/// Sets O_NONBLOCK on `fd`.
[[nodiscard]] Status SetNonBlocking(int fd);

/// Disables Nagle's algorithm (best effort; small RPC-style exchanges).
void SetTcpNoDelay(int fd);

/// Accepts one pending connection as a non-blocking socket. Returns -1 (not
/// an error) when the accept queue is empty (EAGAIN), an error Status on
/// real failures.
[[nodiscard]] StatusOr<int> AcceptNonBlocking(int listen_fd);

/// Starts a non-blocking dial of `host:port` (numeric IPv4) and returns the
/// socket at once (non-blocking, close-on-exec, TCP_NODELAY): the connect may
/// still be in flight. Wait for writability, then ask ConnectDone().
[[nodiscard]] StatusOr<int> StartConnectTcp(const std::string& host,
                                            uint16_t port);

/// Outcome of a dial started by StartConnectTcp(): true once connected,
/// false while the handshake is still in flight, an error Status when it
/// failed (refused, unreachable, ...).
[[nodiscard]] StatusOr<bool> ConnectDone(int fd);

/// Dials `host:port` (numeric IPv4) and waits up to `timeout_ms` for the
/// connect to complete. Returns a connected non-blocking, close-on-exec
/// socket with TCP_NODELAY set. Aborted on timeout, Internal on refusal.
[[nodiscard]] StatusOr<int> ConnectTcp(const std::string& host, uint16_t port,
                                       int timeout_ms);

/// Blocks up to `timeout_ms` for `fd` to become readable (`want_write` ==
/// false) or writable (true). Returns true when ready, false on timeout; an
/// error Status when the descriptor is in an error state.
[[nodiscard]] StatusOr<bool> WaitFd(int fd, bool want_write, int timeout_ms);

/// Reads into `buffer`. Returns bytes read, 0 on orderly peer shutdown, -1
/// when the socket has no data right now (EAGAIN); error Status otherwise.
[[nodiscard]] StatusOr<int> ReadSome(int fd, char* buffer, size_t size);

/// Writes from `data`. Returns bytes written (possibly short), -1 when the
/// socket buffer is full (EAGAIN); error Status otherwise. SIGPIPE is
/// suppressed (a closed peer surfaces as an error Status instead).
[[nodiscard]] StatusOr<int> WriteSome(int fd, const char* data, size_t size);

void CloseFd(int fd);

}  // namespace juggler::net

#endif  // JUGGLER_NET_SOCKET_UTIL_H_
