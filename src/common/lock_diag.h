#ifndef JUGGLER_COMMON_LOCK_DIAG_H_
#define JUGGLER_COMMON_LOCK_DIAG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace juggler::lockdiag {

/// \file
/// Lock diagnostics: named lock classes with hold-time/contention counters,
/// and a lockdep-style potential-deadlock detector.
///
/// Every long-lived `Mutex` in the library registers a *lock class* — a
/// (name, rank) pair interned once per process. The rank encodes the
/// subsystem layering (outermost layer = lowest rank; a thread may only
/// acquire locks of equal-or-higher rank than the ones it already holds):
///
///   net (10) < cluster (14) < service (20) < registry (30) < cache (40)
///
/// In detector-enabled builds (`-DJUGGLER_DEADLOCK_DETECT=ON`, default ON
/// for Debug) every acquisition is checked against a global lock-order
/// graph: acquiring B while holding A records the edge A→B, and a later
/// B→A acquisition — even on a different thread, minutes apart, with no
/// actual blocking — reports a *potential* deadlock with both offending
/// lock chains. Rank inversions and same-class nesting are reported
/// directly. The counters (acquisitions, contention, wait/hold time) are
/// always on for named mutexes and surface through `/metrics` as the
/// `juggler_lock_*` series.

/// Subsystem layer ranks. Lower = outer (acquired first). Gaps leave room
/// for future layers without renumbering.
inline constexpr int kRankNet = 10;
inline constexpr int kRankCluster = 14;
inline constexpr int kRankService = 20;
inline constexpr int kRankRegistry = 30;
inline constexpr int kRankCache = 40;
/// A leaf lock never holds while acquiring anything else.
inline constexpr int kRankLeaf = 90;

/// One interned lock class. Stable address for the process lifetime; all
/// counters are monotonic and relaxed (observability, not synchronization).
class LockClass {
 public:
  LockClass(std::string name_in, int rank_in)
      : name(std::move(name_in)), rank(rank_in) {}
  LockClass(const LockClass&) = delete;
  LockClass& operator=(const LockClass&) = delete;

  const std::string name;
  const int rank;

  mutable std::atomic<uint64_t> acquisitions{0};   ///< Total Lock()+successful TryLock().
  mutable std::atomic<uint64_t> contended{0};      ///< Acquisitions that had to block.
  mutable std::atomic<uint64_t> wait_ns{0};        ///< Time spent blocked acquiring.
  mutable std::atomic<uint64_t> hold_ns{0};        ///< Total time held.
  mutable std::atomic<uint64_t> max_hold_ns{0};    ///< Longest single hold.
};

/// Interns (name, rank) and returns a stable pointer. Repeat registrations
/// of the same name return the first instance (the first rank wins).
/// Thread-safe; typically called from constructor member-init lists.
const LockClass* RegisterLockClass(const std::string& name, int rank);

/// Point-in-time copy of one class's counters, for /metrics.
struct LockStats {
  std::string name;
  int rank = 0;
  uint64_t acquisitions = 0;
  uint64_t contended = 0;
  uint64_t wait_ns = 0;
  uint64_t hold_ns = 0;
  uint64_t max_hold_ns = 0;
};

/// Snapshot of every registered class, sorted by name.
std::vector<LockStats> SnapshotLockStats();

// ---------------------------------------------------------------------------
// Potential-deadlock detector.

/// Runtime switch. Defaults to ON when compiled with JUGGLER_DEADLOCK_DETECT,
/// OFF otherwise; tests may force it on in any build type. Enable before
/// spawning threads: acquisitions made while disabled are not tracked, so
/// toggling mid-hold is tolerated but those holds are invisible.
void SetDeadlockDetectorEnabled(bool enabled);
bool DeadlockDetectorEnabled();

/// Called with a human-readable multi-line report (both lock chains) on
/// every detected inversion/cycle. The default handler writes the report to
/// stderr and aborts. Returns the previous handler so tests can capture
/// reports and restore. Pass nullptr to restore the default.
using ReportHandler = void (*)(const std::string& report);
ReportHandler SetDeadlockReportHandler(ReportHandler handler);

/// Number of reports issued since process start (monotonic).
uint64_t DeadlockReportCount();

/// Drops all recorded lock-order edges and reported-pair memory (counters
/// and registered classes are kept). Lets tests seed inversions without
/// poisoning each other.
void ResetDeadlockGraphForTesting();

/// Acquisition/release hooks, called by Mutex for named mutexes only.
/// Not for direct use.
void OnAcquired(const LockClass* cls);
void OnReleased(const LockClass* cls);

// ---------------------------------------------------------------------------
// Rank anchors for ACQUIRED_AFTER / ACQUIRED_BEFORE annotations.
//
// Clang's acquired_after/acquired_before attributes want a capability
// expression, and a member of another class is not visible at a member
// declaration. These zero-size capability objects stand in for whole
// layers, so a mutex member can document its position in the global order
// in a form the compiler parses (renaming an anchor breaks the build):
//
//   Mutex mu_ ACQUIRED_AFTER(lockdiag::kServiceOrder);
//
// The runtime detector enforces the same order dynamically via the ranks.

class CAPABILITY("lock-rank") LockRankAnchor {
 public:
  LockRankAnchor() = default;
  LockRankAnchor(const LockRankAnchor&) = delete;
  LockRankAnchor& operator=(const LockRankAnchor&) = delete;
};

extern LockRankAnchor kNetOrder;       ///< rank 10: event-loop completion lists
extern LockRankAnchor kClusterOrder;   ///< rank 14: router idle forwarders
extern LockRankAnchor kServiceOrder;   ///< rank 20: thread pool, app counters
extern LockRankAnchor kRegistryOrder;  ///< rank 30: model registry snapshot
extern LockRankAnchor kCacheOrder;     ///< rank 40: prediction cache shards

}  // namespace juggler::lockdiag

#endif  // JUGGLER_COMMON_LOCK_DIAG_H_
