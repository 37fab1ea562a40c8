#ifndef JUGGLER_PERFBENCH_OPEN_LOOP_H_
#define JUGGLER_PERFBENCH_OPEN_LOOP_H_

// Open-loop HTTP load generator: a fixed number of keep-alive connections,
// one sender thread each, requests pipelined on a fixed schedule whether or
// not earlier ones have been answered. Every latency is measured from the
// request's *scheduled* send time, so a stall in the server shows up in the
// latency of every request queued behind it.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"

namespace juggler::perfbench {

int64_t NowNs();  ///< steady_clock, nanoseconds.

/// Splits the CPUs this process may use: the calling thread (and every
/// thread it creates later, i.e. the serving stack) is restricted to the
/// first `stack_cpus`, and the sender threads of every OpenLoopClient run on
/// the rest. Keeps the stack and the load generator from taking CPU time
/// from each other. No-op below four CPUs.
void PartitionCpus(int stack_cpus);
/// Moves the calling thread to the load generator's CPUs (after
/// PartitionCpus split them off; otherwise a no-op).
void PinToSenderCpus();
double ThreadCpuSeconds();
double ProcessCpuSeconds();

/// One client-side span: a request from its send to its response.
struct ClientSpan {
  uint64_t request_id = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
};

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t ok = 0;        ///< 200 responses.
  uint64_t shed = 0;      ///< 503 responses (load shedding).
  uint64_t failed = 0;    ///< Anything but 200, incl. shed and timeouts.
  /// Latency (ms, from the scheduled send) of every request, in send
  /// order; failed requests read +infinity so they miss any limit.
  std::vector<double> latency_ms;
  /// How late the sender put each request on the wire (ms).
  std::vector<double> late_ms;
  double gen_cpu_s = 0.0;      ///< Sender threads' own thread-CPU time.
  double process_cpu_s = 0.0;  ///< Whole process over the phase.
  std::vector<ClientSpan> spans;  ///< Filled when tracing.
  /// (send index, response body) for the sampled requests.
  std::vector<std::pair<uint32_t, std::string>> samples;

  double ServerCpuUsPerRequest() const;
};

struct PhaseOptions {
  double rate = 1000.0;  ///< Offered requests per second.
  /// After the last scheduled send, how long to wait for stragglers before
  /// counting them as timed out.
  double drain_timeout_s = 2.0;
  bool record_spans = false;
  /// Send index i is sampled for the output check when
  /// (i * 2654435761 + sample_salt) % sample_every == 0.
  uint32_t sample_every = 0;  ///< 0 disables sampling.
  uint64_t sample_salt = 0;
  /// Request ids are first_request_id + send index.
  uint64_t first_request_id = 1;
};

class OpenLoopClient {
 public:
  OpenLoopClient(uint16_t port, int connections);
  ~OpenLoopClient();

  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Sends `plan` at `options.rate` and waits for every answer (or the drain
  /// timeout). Request i is due at start + i / rate and goes out on
  /// connection i % connections.
  PhaseResult Run(const RequestPlan& plan, const PhaseOptions& options);

 private:
  int Dial() const;

  uint16_t port_;
  std::vector<int> fds_;
};

/// Percentile q in [0, 1] of `values` (nearest rank on a sorted copy).
double Percentile(std::vector<double> values, double q);

}  // namespace juggler::perfbench

#endif  // JUGGLER_PERFBENCH_OPEN_LOOP_H_
