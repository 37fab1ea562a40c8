#ifndef JUGGLER_LOADGEN_SLO_H_
#define JUGGLER_LOADGEN_SLO_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "loadgen/trace.h"

namespace juggler::loadgen {

/// \brief SLO invariant checking for soak runs.
///
/// Two layers:
///  - per-phase: replay outcomes (PhaseResult) checked against the phase's
///    declared budgets (CheckPhase);
///  - continuous: /metrics scrapes fed to MetricsMonitor, which verifies
///    counters only ever move forward and stay internally consistent.

/// Replay-side outcome tally for one phase. Filled by the replay engine.
struct PhaseResult {
  std::string name;
  double duration_s = 0.0;

  // Valid (and observe) request outcomes.
  uint64_t sent = 0;      ///< Well-formed requests dispatched.
  uint64_t ok2xx = 0;     ///< Complete 2xx responses.
  uint64_t shed503 = 0;   ///< Clean 503 sheds carrying Retry-After.
  uint64_t retry_after_missing = 0;  ///< 503s without Retry-After (a bug).
  uint64_t errors4xx = 0;
  uint64_t errors5xx = 0;  ///< Non-503 5xx.
  uint64_t transport_errors = 0;    ///< Dial/read/write/timeout failures.
  uint64_t malformed_responses = 0;  ///< Unparseable/truncated responses.

  // Hostile-traffic outcomes (not counted against the error budget:
  // the server rejecting them is the desired behaviour).
  uint64_t malformed_sent = 0;
  uint64_t slow_sent = 0;
  uint64_t slow_reaped = 0;  ///< Slowloris connections the server closed.
  uint64_t slow_hung = 0;    ///< Still open past the deadline (a bug).

  std::vector<double> latencies_ms;  ///< Completed valid/observe requests.

  double Qps() const;
  /// Non-2xx outcomes as a fraction of well-formed requests sent. Sheds
  /// count: trace authors budget for chaos phases via max_error_ratio.
  double ErrorRatio() const;
  double P99Ms() const;
};

struct Verdict {
  std::string name;
  bool pass = true;
  std::string detail;
};

/// Checks one phase's replay outcomes against its spec. `latency_slack`
/// multiplies the p99 bound (sanitizer builds pass ~10x). Hard invariants
/// (every 503 carries Retry-After, no malformed responses, no hung
/// slowloris) do not scale with slack.
std::vector<Verdict> CheckPhase(const PhaseSpec& spec,
                                const PhaseResult& result,
                                double latency_slack);

/// Tolerant Prometheus text-format reader: one (metric{labels}, value) entry
/// per sample line, comments and unparseable lines skipped.
std::map<std::string, double> ParsePrometheusText(const std::string& text);

/// Feed every /metrics scrape to Observe(); violations accumulate.
///
/// Checked across consecutive scrapes of the same endpoint:
///  - monotonicity: a `*_total` counter never decreases;
///  - consistency within one scrape:
///      juggler_http_requests_total >= juggler_http_fast_path_total
///      juggler_http_requests_total >= sum(juggler_requests_total{app=...})
///      juggler_router_healthy_shards <= number of shard_healthy series.
class MetricsMonitor {
 public:
  /// `source` keys the monotonicity baseline (one per scraped endpoint).
  void Observe(const std::string& source,
               const std::map<std::string, double>& samples);

  uint64_t scrapes() const { return scrapes_; }

  /// Summary verdicts: one per rule, failing if any scrape violated it.
  std::vector<Verdict> Verdicts() const;

 private:
  void AddViolation(const std::string& rule, const std::string& detail);

  uint64_t scrapes_ = 0;
  std::map<std::string, std::map<std::string, double>> last_;
  std::vector<Verdict> violations_;
};

}  // namespace juggler::loadgen

#endif  // JUGGLER_LOADGEN_SLO_H_
