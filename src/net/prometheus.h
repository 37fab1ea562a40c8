#ifndef JUGGLER_NET_PROMETHEUS_H_
#define JUGGLER_NET_PROMETHEUS_H_

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/lock_diag.h"
#include "net/event_loop_server.h"

namespace juggler::net {

/// \brief Tiny Prometheus text-exposition helpers (version 0.0.4), shared by
/// every /metrics endpoint (standalone HTTP server, cluster router). Header-
/// only: each function is a handful of appends.

/// Escapes a label value per the exposition format ('\\', '"', newline).
inline void AppendLabelValue(std::string* out, const std::string& value) {
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
}

inline void AppendCounterValue(std::string* out, uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  out->append(buffer);
}

/// One sample line: `name{label_name="label",extra} value`. `label_name` is
/// the key used for the optional first label (e.g. "app" or "shard");
/// `extra_labels` is raw pre-rendered text (e.g. `quantile="0.5"`).
inline void AppendLabeledSample(std::string* out, const char* name,
                                const char* label_name,
                                const std::string& label,
                                const char* extra_labels, double value) {
  out->append(name);
  if (!label.empty() || extra_labels[0] != '\0') {
    out->push_back('{');
    if (!label.empty()) {
      out->append(label_name);
      out->append("=\"");
      AppendLabelValue(out, label);
      out->push_back('"');
      if (extra_labels[0] != '\0') out->push_back(',');
    }
    out->append(extra_labels);
    out->push_back('}');
  }
  out->push_back(' ');
  if (value == static_cast<double>(static_cast<uint64_t>(value)) &&
      value >= 0.0 && value < 9.2e18) {
    AppendCounterValue(out, static_cast<uint64_t>(value));
  } else {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.10g", value);
    out->append(buffer);
  }
  out->push_back('\n');
}

/// The historical signature: first label is always `app`.
inline void AppendSample(std::string* out, const char* name,
                         const std::string& app, const char* extra_labels,
                         double value) {
  AppendLabeledSample(out, name, "app", app, extra_labels, value);
}

inline void AppendHeader(std::string* out, const char* name, const char* type,
                         const char* help) {
  out->append("# HELP ").append(name).append(" ").append(help).append("\n");
  out->append("# TYPE ").append(name).append(" ").append(type).append("\n");
}

/// The HTTP transport series (`juggler_http_*`) of one event-loop front
/// end. Every HTTP edge (standalone server, cluster router) exports the same
/// names and help texts; only `fast_path_help` differs, because what an edge
/// answers on its loop differs.
inline void AppendHttpMetrics(std::string* out,
                              const EventLoopServer::Stats& http,
                              const char* fast_path_help) {
  const auto series = [out](const char* name, const char* type,
                            const char* help, uint64_t value) {
    AppendHeader(out, name, type, help);
    AppendSample(out, name, "", "", static_cast<double>(value));
  };
  series("juggler_http_connections_accepted_total", "counter",
         "TCP connections accepted.", http.accepted);
  series("juggler_http_connections_active", "gauge",
         "TCP connections currently open.", http.active);
  series("juggler_http_requests_total", "counter", "HTTP requests parsed.",
         http.requests);
  series("juggler_http_fast_path_total", "counter", fast_path_help,
         http.fast_path);
  series("juggler_http_overload_rejected_total", "counter",
         "HTTP requests answered 503 by the dispatch-queue guard.",
         http.overload_rejected);
  series("juggler_http_parse_errors_total", "counter",
         "HTTP protocol errors (400/413/501).", http.parse_errors);
  series("juggler_http_idle_closed_total", "counter",
         "Connections closed by the idle sweeper.", http.idle_closed);
  series("juggler_http_slow_read_closed_total", "counter",
         "Connections answered 408 and closed for stalling mid-request "
         "(header-read deadline).",
         http.slow_read_closed);
  series("juggler_http_slow_write_closed_total", "counter",
         "Connections closed for not draining the response (write "
         "deadline).",
         http.slow_write_closed);
}

/// Per-mutex lock pressure (common/lock_diag.h), one `lock="<class>"` series
/// per registered lock class. Shared by every /metrics endpoint so lock
/// contention is observable wherever a Mutex is named.
inline void AppendLockMetrics(std::string* out) {
  const std::vector<lockdiag::LockStats> locks = lockdiag::SnapshotLockStats();
  if (locks.empty()) return;
  AppendHeader(out, "juggler_lock_acquisitions_total", "counter",
               "Mutex acquisitions, by lock class.");
  for (const auto& l : locks) {
    AppendLabeledSample(out, "juggler_lock_acquisitions_total", "lock", l.name,
                        "", static_cast<double>(l.acquisitions));
  }
  AppendHeader(out, "juggler_lock_contended_total", "counter",
               "Mutex acquisitions that had to block, by lock class.");
  for (const auto& l : locks) {
    AppendLabeledSample(out, "juggler_lock_contended_total", "lock", l.name,
                        "", static_cast<double>(l.contended));
  }
  AppendHeader(out, "juggler_lock_wait_seconds_total", "counter",
               "Total time spent blocked acquiring, by lock class.");
  for (const auto& l : locks) {
    AppendLabeledSample(out, "juggler_lock_wait_seconds_total", "lock", l.name,
                        "", static_cast<double>(l.wait_ns) * 1e-9);
  }
  AppendHeader(out, "juggler_lock_hold_seconds_total", "counter",
               "Total time the lock was held, by lock class.");
  for (const auto& l : locks) {
    AppendLabeledSample(out, "juggler_lock_hold_seconds_total", "lock", l.name,
                        "", static_cast<double>(l.hold_ns) * 1e-9);
  }
  AppendHeader(out, "juggler_lock_hold_seconds_max", "gauge",
               "Longest single hold observed, by lock class.");
  for (const auto& l : locks) {
    AppendLabeledSample(out, "juggler_lock_hold_seconds_max", "lock", l.name,
                        "", static_cast<double>(l.max_hold_ns) * 1e-9);
  }
}

}  // namespace juggler::net

#endif  // JUGGLER_NET_PROMETHEUS_H_
