#ifndef JUGGLER_COMMON_MUTEX_H_
#define JUGGLER_COMMON_MUTEX_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>

#include "common/lock_diag.h"
#include "common/thread_annotations.h"

namespace juggler {

/// \brief `std::mutex` wrapped as a clang thread-safety CAPABILITY, with
/// optional lock diagnostics.
///
/// `std::mutex` carries no thread-safety attributes, so clang's analysis
/// cannot associate `GUARDED_BY` members with it. This wrapper's Lock/Unlock
/// are ACQUIRE/RELEASE annotated, making the whole repo's lock discipline
/// statically checkable. All lock-protected state in the library uses
/// `Mutex` + `MutexLock`; raw `std::mutex`/`std::lock_guard` in
/// `src/service/` and `src/net/` is rejected by `juggler_analyze` (rule
/// `raw-sync-primitive`).
///
/// Two flavors:
///  - `Mutex()` — anonymous: a zero-cost shim over std::mutex (same layout
///    semantics as before, calls inline to the bare primitive).
///  - `Mutex(const lockdiag::LockClass*)` — named: every long-lived library
///    mutex registers a lock class (see common/lock_diag.h) carrying a name
///    and a subsystem rank. Named mutexes maintain hold-time / contention
///    counters (always on, surfaced via /metrics as `juggler_lock_*`) and,
///    when the potential-deadlock detector is enabled
///    (JUGGLER_DEADLOCK_DETECT, default ON for Debug builds), feed every
///    acquisition into a global lock-order graph with cycle detection.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// Named mutex: `Mutex mu{lockdiag::RegisterLockClass("net.Foo.mu",
  /// lockdiag::kRankNet)};` — usually via a constructor member-init list so
  /// the member declaration can carry an ACQUIRED_AFTER anchor annotation.
  explicit Mutex(const lockdiag::LockClass* cls) : cls_(cls) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    if (cls_ == nullptr) {
      mu_.lock();
      return;
    }
    LockInstrumented();
  }

  void Unlock() RELEASE() {
    if (cls_ == nullptr) {
      mu_.unlock();
      return;
    }
    UnlockInstrumented();
  }

  bool TryLock() TRY_ACQUIRE(true) {
    if (cls_ == nullptr) return mu_.try_lock();
    return TryLockInstrumented();
  }

  /// Annotation-only assertion that the calling thread already holds this
  /// mutex: both clang's thread-safety analysis and the in-repo
  /// `analyze-guarded-field` pass treat guarded state as protected for the
  /// rest of the scope. `std::mutex` cannot verify ownership at runtime, so
  /// this compiles to nothing — use it only where the acquisition is real
  /// but invisible to the analysis (e.g. taken through `native_handle()` or
  /// in a caller outside the translation unit).
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

  /// The lock class this mutex was registered under, or nullptr.
  const lockdiag::LockClass* lock_class() const { return cls_; }

  /// Escape hatch for interop (e.g. `CondVar`). Callers are responsible for
  /// keeping the analysis informed via annotations on their own functions.
  std::mutex& native_handle() { return mu_; }

 private:
  friend class CondVar;

  // Out of line (common/lock_diag.cc) so this header stays light.
  void LockInstrumented();
  bool TryLockInstrumented();
  void UnlockInstrumented();
  void BeginWaitInstrumented();
  void EndWaitInstrumented();

  const lockdiag::LockClass* cls_ = nullptr;
  /// Hold-time bookkeeping, touched only by the thread that holds the lock
  /// (the *Instrumented methods assert as much via AssertHeld()).
  uint64_t hold_start_ns_ GUARDED_BY(this) = 0;
  // This IS the annotated wrapper; the capability is the enclosing class,
  // so there is nothing to GUARDED_BY here.
  std::mutex mu_;  // NOLINT(unannotated-mutex): see above
};

/// \brief RAII lock for `Mutex`, visible to the thread-safety analysis
/// (the annotated replacement for `std::lock_guard<std::mutex>`).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// \brief Condition variable that waits on a `Mutex`.
///
/// `std::condition_variable::wait` insists on a `std::unique_lock`, which the
/// analysis cannot track; this adapter adopts the already-held `Mutex` for
/// the duration of the wait and releases unique_lock ownership on exit, so
/// the caller-visible contract is simply REQUIRES(mu): held on entry, held on
/// return (dropped and re-acquired internally while blocked, as with any
/// condition variable). Deliberately predicate-less: callers write
/// `while (!cond) cv.Wait(mu);` under the held lock, which keeps every access
/// to GUARDED_BY state inside a region the analysis can verify (a predicate
/// lambda's body would be opaque to it). The `condvar-wait-predicate` lint
/// rule enforces the `while` at every call site, which is why the raw
/// `cv_.wait` below is the one sanctioned predicate-less wait in the tree.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified, re-acquires `mu`.
  /// The caller must hold `mu` and must re-check its condition in a loop
  /// (spurious wakeups are allowed, as with std::condition_variable).
  void Wait(Mutex& mu) REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    const bool named = mu.cls_ != nullptr;
    // The wait releases the mutex: close out hold-time accounting and pop
    // the deadlock-detector stack, then restore both after wakeup.
    if (named) mu.BeginWaitInstrumented();
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);  // NOLINT(condvar-wait-predicate): callers hold the loop.
    lock.release();  // Leave the mutex held for the caller, as promised.
    if (named) mu.EndWaitInstrumented();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace juggler

#endif  // JUGGLER_COMMON_MUTEX_H_
