#include "open_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <thread>
#include <ctime>

namespace juggler::perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

cpu_set_t g_sender_cpus;
bool g_partitioned = false;

/// Per-thread tallies, merged after join.
struct SenderTally {
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;
  double cpu_s = 0.0;
  std::vector<ClientSpan> spans;
  std::vector<std::pair<uint32_t, std::string>> samples;
};

/// Parses the fixed shape of this server's responses: status line, headers
/// with an exact "Content-Length: " field, body. Returns false when the
/// buffer does not yet hold a complete response.
bool NextResponse(const std::string& in, size_t* offset, int* status,
                  size_t* body_begin, size_t* body_len) {
  const size_t header_end = in.find("\r\n\r\n", *offset);
  if (header_end == std::string::npos) return false;
  if (header_end < *offset + 12) {
    *status = -1;
    return true;
  }
  *status = (in[*offset + 9] - '0') * 100 + (in[*offset + 10] - '0') * 10 +
            (in[*offset + 11] - '0');
  static constexpr char kLength[] = "Content-Length: ";
  const size_t field = in.find(kLength, *offset);
  size_t length = 0;
  if (field != std::string::npos && field < header_end) {
    for (size_t p = field + sizeof(kLength) - 1;
         p < header_end && in[p] >= '0' && in[p] <= '9'; ++p) {
      length = length * 10 + static_cast<size_t>(in[p] - '0');
    }
  }
  const size_t end = header_end + 4 + length;
  if (in.size() < end) return false;
  *body_begin = header_end + 4;
  *body_len = length;
  *offset = end;
  return true;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

void PartitionCpus(int stack_cpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 4) return;
  cpu_set_t stack;
  CPU_ZERO(&stack);
  CPU_ZERO(&g_sender_cpus);
  for (size_t i = 0; i < cpus.size(); ++i) {
    CPU_SET(cpus[i], i < static_cast<size_t>(stack_cpus) ? &stack
                                                         : &g_sender_cpus);
  }
  if (sched_setaffinity(0, sizeof(stack), &stack) == 0) g_partitioned = true;
}

void PinToSenderCpus() {
  if (g_partitioned) {
    pthread_setaffinity_np(pthread_self(), sizeof(g_sender_cpus),
                           &g_sender_cpus);
  }
}

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double PhaseResult::ServerCpuUsPerRequest() const {
  if (ok == 0) return 0.0;
  return 1e6 * (process_cpu_s - gen_cpu_s) / static_cast<double>(ok);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) -
          (q > 0.0 ? 1 : 0));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

OpenLoopClient::OpenLoopClient(uint16_t port, int connections) : port_(port) {
  for (int i = 0; i < connections; ++i) fds_.push_back(Dial());
}

OpenLoopClient::~OpenLoopClient() {
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

int OpenLoopClient::Dial() const {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::fprintf(stderr, "perfbench: connect to port %u failed: %s\n", port_,
                 std::strerror(errno));
    std::exit(1);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

PhaseResult OpenLoopClient::Run(const RequestPlan& plan,
                                const PhaseOptions& options) {
  const size_t n = plan.size();
  const size_t conns = fds_.size();
  PhaseResult result;
  result.attempted = n;
  result.latency_ms.assign(n, kInf);
  result.late_ms.assign(n, 0.0);
  const double interval_ns = 1e9 / options.rate;
  const int64_t drain_ns =
      static_cast<int64_t>(options.drain_timeout_s * 1e9);
  std::vector<SenderTally> tallies(conns);
  const double cpu_before = ProcessCpuSeconds();
  const int64_t start_ns = NowNs() + 2'000'000;  // Threads are up by then.
  const auto due = [&](size_t i) {
    return start_ns + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
  };

  const auto sender = [&](size_t conn) {
    SenderTally& tally = tallies[conn];
    PinToSenderCpus();
    // Send on time: the default 50us timer slack would add its own jitter
    // to every scheduled send.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const double cpu_start = ThreadCpuSeconds();
    int& fd = fds_[conn];
    std::string out;
    size_t out_off = 0;
    std::string in;
    size_t in_off = 0;
    std::deque<uint32_t> inflight;
    std::vector<int64_t> sent_ns(options.record_spans ? n : 0);
    size_t next = conn;
    const size_t last = n == 0 ? 0 : n - 1;
    const int64_t deadline = due(last) + drain_ns;
    char chunk[64 * 1024];

    const auto fail_inflight = [&] {
      for (uint32_t i : inflight) {
        ++tally.failed;
        result.latency_ms[i] = kInf;
      }
      inflight.clear();
    };
    const auto reconnect = [&] {
      fail_inflight();
      ::close(fd);
      fd = Dial();
      out.clear();
      out_off = 0;
      in.clear();
      in_off = 0;
    };

    while (true) {
      int64_t now = NowNs();
      while (next < n && due(next) <= now) {
        const Request& request = plan.at(next);
        const size_t pos = out.size();
        out += request.wire;
        StampRequestId(&out[pos + request.id_offset],
                       options.first_request_id + next);
        result.late_ms[next] = static_cast<double>(now - due(next)) / 1e6;
        if (options.record_spans) sent_ns[next] = now;
        inflight.push_back(static_cast<uint32_t>(next));
        next += conns;
      }
      if (out_off < out.size()) {
        const ssize_t w = ::send(fd, out.data() + out_off, out.size() - out_off,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w > 0) {
          out_off += static_cast<size_t>(w);
          if (out_off == out.size()) {
            out.clear();
            out_off = 0;
          }
        } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          reconnect();
          continue;
        }
      }
      if (next >= n && inflight.empty()) break;
      if (next >= n && now > deadline) break;

      const int64_t wake = next < n ? due(next) : deadline;
      const int64_t wait_ns = std::max<int64_t>(0, wake - now);
      pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
                 0};
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      if (::ppoll(&pfd, 1, &ts, nullptr) <= 0) continue;
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

      bool broken = false;
      while (true) {
        const ssize_t r = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (r > 0) {
          in.append(chunk, static_cast<size_t>(r));
          if (static_cast<size_t>(r) < sizeof(chunk)) break;
          continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (r < 0 && errno == EINTR) continue;
        broken = true;
        break;
      }
      now = NowNs();
      int status = 0;
      size_t body_begin = 0;
      size_t body_len = 0;
      while (!inflight.empty() &&
             NextResponse(in, &in_off, &status, &body_begin, &body_len)) {
        const uint32_t i = inflight.front();
        inflight.pop_front();
        if (status == 200) {
          ++tally.ok;
          result.latency_ms[i] = static_cast<double>(now - due(i)) / 1e6;
        } else {
          if (status == 503) ++tally.shed;
          ++tally.failed;
        }
        if (options.record_spans) {
          tally.spans.push_back(
              ClientSpan{options.first_request_id + i, sent_ns[i], now});
        }
        if (options.sample_every > 0 &&
            (i * 2654435761ULL + options.sample_salt) % options.sample_every ==
                0) {
          tally.samples.emplace_back(i, in.substr(body_begin, body_len));
        }
        if (status < 0) {
          broken = true;
          break;
        }
      }
      if (in_off == in.size()) {
        in.clear();
        in_off = 0;
      } else if (in_off > (1u << 20)) {
        in.erase(0, in_off);
        in_off = 0;
      }
      if (broken) reconnect();
    }
    // Anything still unanswered timed out; its late reply would misalign the
    // next phase's pipeline, so the connection is replaced.
    if (!inflight.empty()) reconnect();
    tally.cpu_s = ThreadCpuSeconds() - cpu_start;
  };

  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (size_t c = 0; c < conns; ++c) threads.emplace_back(sender, c);
  for (auto& t : threads) t.join();
  result.process_cpu_s = ProcessCpuSeconds() - cpu_before;
  for (SenderTally& tally : tallies) {
    result.ok += tally.ok;
    result.shed += tally.shed;
    result.failed += tally.failed;
    result.gen_cpu_s += tally.cpu_s;
    result.spans.insert(result.spans.end(), tally.spans.begin(),
                        tally.spans.end());
    for (auto& sample : tally.samples) result.samples.push_back(std::move(sample));
  }
  return result;
}

}  // namespace juggler::perfbench
