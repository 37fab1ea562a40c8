#ifndef JUGGLER_PERFBENCH_HARNESS_H_
#define JUGGLER_PERFBENCH_HARNESS_H_

// Pieces shared by the end-to-end run and the traced run: the run context,
// warm-up and fixed-rate phases, the output check and the result line.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "open_loop.h"
#include "stack.h"

namespace juggler::perfbench {

struct RunContext {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  fs::path run_dir;  ///< Private scratch directory, removed at exit.
};

/// Connections (and sender threads) of every open-loop phase.
inline constexpr int kConnections = 4;

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the final result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":v,"unit":u},...}}.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

/// Trains a fresh model set into `dir` and starts the workload's stack on
/// it; returns the wall time of both.
double SetUp(const RunContext& ctx, const fs::path& dir, SpanSink* spans,
             ModelSet* models, std::unique_ptr<Stack>* stack);

/// Verifies sampled responses against direct TrainedJuggler::Recommend()
/// answers on the same artifacts. Returns the number of wrong answers.
struct CheckResult {
  uint64_t checked = 0;
  uint64_t wrong = 0;
  std::string first_error;
};
CheckResult CheckAnswers(const RequestPlan& plan, const PhaseResult& phase,
                         const ModelSet& models,
                         const std::vector<std::string>& skip_apps);

/// The fixed-rate phase: kFixedWindows consecutive open-loop windows at
/// the workload's fixed rate. p50 and CPU per request are medians over
/// blocks of kWindowsPerBlock windows (long enough that each holds the
/// same share of periodic background work, e.g. two online refit polls on
/// cluster_online), each block read at reference speed by the
/// ProbeLoopback() taken right after it; peak RSS is the highest over
/// windows; p99 is the median over chunks of kChunkRequests consecutive
/// sends.
inline constexpr int kFixedWindows = 48;
inline constexpr int kWindowsPerBlock = 4;
inline constexpr size_t kChunkRequests = 1'000;
struct FixedRateSummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double server_cpu_us_per_req = 0.0;
  double gen_cpu_us_per_req = 0.0;
  double late_p99_ms = 0.0;  ///< How late the sender ran (median window).
  /// Peak resident memory while a window is served (VmHWM, reset at the
  /// window's start), highest over windows.
  double rss_mb = 0.0;
  uint64_t attempted = 0;
  uint64_t answered = 0;
  uint64_t failed = 0;  ///< Transport/HTTP failures plus wrong answers.
  uint64_t shed = 0;
  CheckResult check;
  StackCounters before;
  StackCounters after;
  std::vector<ClientSpan> spans;  ///< When tracing.

  double error_ratio() const {
    return static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

/// A fixed-rate phase is correct when answers were checked and none was
/// wrong. Failed requests are counted (the result line's `failed`,
/// `ok_ratio`), not judged; a sender that fell behind its schedule (p99
/// lateness over half the latency limit, the test a ramp step must pass)
/// is reported on stderr: it means a disturbed machine, not wrong output.
bool Correct(const FixedRateSummary& fixed, double p99_limit_ms);

/// One end-to-end pass of either run.
struct LivePass {
  FixedRateSummary fixed;
  std::vector<ServerSpan> spans;  ///< Handler spans, when traced.
  double max_qps_at_slo = 0.0;    ///< When the ramp ran.
};

/// Drives a started stack: warm-up, the fixed-rate phase over `seconds`
/// (`between`, when set, runs after each window, outside every measured
/// interval), then the rate ramp over `ramp_s` when it is positive; stops
/// the stack. `spans` is the sink the (traced) stack records into.
LivePass RunLivePass(const RunContext& ctx, const ModelSet& models,
                     Stack* stack, double seconds, double ramp_s,
                     SpanSink* spans,
                     const std::function<void(int window)>& between);

/// Thread-CPU seconds of fixed reference work on the calling thread:
/// number formatting and parsing into a hash table, and small writes and
/// reads over a local socket pair. It uses nothing from src/, so no change
/// to the system under test moves it; a slowed-down machine does.
double ProbeMachine();

/// ProbeMachine() on an undisturbed 4-vCPU x86 VM. A set-up timed right
/// after a probe is scaled by kReferenceProbeS / that probe's time, i.e.
/// read at the reference machine's speed.
inline constexpr double kReferenceProbeS = 0.015;

/// Round trips of 200-byte messages over a loopback TCP connection, the
/// echo side (poll, read, write) on the calling thread's CPUs and the
/// client on the load generator's: first 2000 back to back, then 300 with
/// a 250 us pause before each, so both sides go idle in between as they
/// do between requests. This is the kernel work and the wake-ups that
/// dominate serving a request; like ProbeMachine() it uses nothing from
/// src/, so only the machine moves it. A shared VM runs each vCPU at full
/// or about half speed in spells of seconds to minutes, which moves both
/// the serving figures and these. Exits the process if loopback TCP fails.
struct LoopbackProbe {
  double echo_cpu_us = 0.0;  ///< Echo thread CPU per back-to-back trip.
  double rtt_us = 0.0;       ///< Median wall time of a paced round trip.
};
LoopbackProbe ProbeLoopback();

/// ProbeLoopback() on a 4-vCPU x86 VM at its usual speed. A block's CPU
/// per request is scaled by kReferenceEchoCpuUs / echo_cpu_us and its p50
/// by kReferenceRttUs / rtt_us of the probe taken right after the block,
/// i.e. read at the reference speed.
inline constexpr double kReferenceEchoCpuUs = 12.0;
inline constexpr double kReferenceRttUs = 45.0;

/// Restarts the kernel's peak-RSS counter (VmHWM) at the current RSS.
void ResetPeakRss();

/// VmHWM of this process, MB.
double PeakRssMb();

double Median(std::vector<double> values);

}  // namespace juggler::perfbench

#endif  // JUGGLER_PERFBENCH_HARNESS_H_
