#ifndef JUGGLER_ONLINE_FEEDBACK_COLLECTOR_H_
#define JUGGLER_ONLINE_FEEDBACK_COLLECTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "online/observation.h"

namespace juggler::online {

/// \brief Bounded, thread-safe intake buffer for live observations.
///
/// Every feedback edge funnels through here: the HTTP POST /v1/observe
/// handler, the shard tier's kObserve frames, and in-process producers (the
/// serving loop recording its own latencies). The buffer is a ring: when
/// full, the *oldest* observation is dropped — under sustained overload the
/// refit engine should see the freshest traffic, not a frozen prefix — and
/// every drop is counted for /metrics.
class FeedbackCollector {
 public:
  struct Options {
    /// Total buffered observations across all applications.
    size_t capacity = 8192;
  };

  struct Stats {
    uint64_t ingested = 0;  ///< Observations accepted into the buffer, ever.
    uint64_t dropped = 0;   ///< Observations displaced by the ring bound.
    size_t buffered = 0;    ///< Currently resident.
  };

  explicit FeedbackCollector(const Options& options);

  FeedbackCollector(const FeedbackCollector&) = delete;
  FeedbackCollector& operator=(const FeedbackCollector&) = delete;

  /// Adds one observation (invalid ones — empty app, non-finite numbers —
  /// are rejected and counted as dropped). Returns true when buffered.
  bool Add(Observation observation);

  /// Adds a batch; returns how many were buffered. Validation runs outside
  /// the lock and the valid records are appended in one lock hold.
  size_t AddAll(std::vector<Observation> batch);

  /// Decodes one wire-format batch (see observation.h) and buffers it.
  /// InvalidArgument on malformed bytes — nothing from a bad batch is kept.
  [[nodiscard]] Status AddEncoded(std::string_view bytes);

  /// Oldest-first snapshot of the buffered observations for `app`.
  std::vector<Observation> SnapshotApp(const std::string& app) const;

  /// Removes and returns every buffered observation for `app`, oldest-first,
  /// under one lock hold: a refit consumes exactly what this returns, and
  /// anything ingested afterwards stays buffered for the next attempt. Not
  /// counted in Stats::dropped — these are used, not lost.
  std::vector<Observation> TakeApp(const std::string& app);

  /// Application names with at least one buffered observation, sorted.
  std::vector<std::string> Apps() const;

  Stats GetStats() const;

 private:
  const size_t capacity_;
  /// Lock class "online.FeedbackCollector.buffer" (leaf rank): nothing is
  /// called out to while held — pure deque/queue manipulation.
  mutable Mutex mu_;
  std::deque<Observation> buffer_ GUARDED_BY(mu_);
  std::atomic<uint64_t> ingested_{0};
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace juggler::online

#endif  // JUGGLER_ONLINE_FEEDBACK_COLLECTOR_H_
