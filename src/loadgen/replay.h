#ifndef JUGGLER_LOADGEN_REPLAY_H_
#define JUGGLER_LOADGEN_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "loadgen/generator.h"
#include "loadgen/slo.h"
#include "loadgen/trace.h"

namespace juggler::loadgen {

/// \brief Paced replay of a generated event sequence against a live HTTP
/// endpoint, with full response validation.
///
/// Worker threads claim events from the shared sequence and dispatch each at
/// its scheduled offset (scaled by `time_scale`) over per-worker keep-alive
/// connections. Every outcome lands in exactly one PhaseResult counter, so
/// the SLO checker can account for every request sent. All socket I/O goes
/// through net/socket_util.h.

struct ReplayOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int workers = 8;
  /// Wall-time multiplier on event offsets: 5.0 stretches a 12s trace into
  /// a 60s run at one fifth the rate (used by CI to hit soak wall-time
  /// floors without longer traces).
  double time_scale = 1.0;
};

/// Replays `events` (as produced by GenerateEvents for `trace`). Returns one
/// PhaseResult per trace phase. Fails only on setup errors (no events, bad
/// options); per-request failures are data, not errors.
[[nodiscard]] StatusOr<std::vector<PhaseResult>> RunReplay(
    const Trace& trace, const std::vector<LoadEvent>& events,
    const ReplayOptions& options);

/// One complete HTTP exchange on a fresh connection (used by the soak
/// harness for /metrics scrapes and health probes, and by the replay engine
/// internally). Transport failures and unparseable responses are error
/// Status; any complete response (including 4xx/5xx) is ok.
struct SimpleResponse {
  int status = 0;
  std::string body;
};
[[nodiscard]] StatusOr<SimpleResponse> HttpFetch(
    const std::string& host, uint16_t port, const std::string& method,
    const std::string& target, const std::string& body, int timeout_ms);

}  // namespace juggler::loadgen

#endif  // JUGGLER_LOADGEN_REPLAY_H_
