#include "common/lock_diag.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/mutex.h"

namespace juggler::lockdiag {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Class registry. Interned pointers must outlive every mutex, including
/// static-storage ones destroyed after main(), so the registry is
/// deliberately leaked (reachable through the static pointer, so LSan does
/// not flag it).
struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, std::unique_ptr<LockClass>> by_name;
};

Registry& GetRegistry() {
  // Intentionally leaked; see struct comment.
  static Registry* r = new Registry();  // NOLINT(naked-new): leaked
  return *r;
}

/// Lock-order graph: one directed edge per observed (held → acquired) class
/// pair, remembering the first acquisition chain that established it so
/// reports can show *both* sides of an inversion.
struct Edge {
  const LockClass* to = nullptr;
  std::string example_chain;
};

struct Detector {
  std::mutex mu;
  std::unordered_map<const LockClass*, std::vector<Edge>> out;
  /// (acquiring, held) pairs already reported, to report each inversion once.
  std::set<std::pair<const LockClass*, const LockClass*>> reported;
};

Detector& GetDetector() {
  // Intentionally leaked, same lifetime story as Registry.
  static Detector* d = new Detector();  // NOLINT(naked-new): leaked
  return *d;
}

std::atomic<bool> g_enabled{
#if defined(JUGGLER_DEADLOCK_DETECT)
    true
#else
    false
#endif
};

std::atomic<uint64_t> g_report_count{0};

void DefaultReportHandler(const std::string& report) {
  std::fputs(report.c_str(), stderr);
  std::fputs("\n", stderr);
  std::fflush(stderr);
  std::abort();
}

std::atomic<ReportHandler> g_handler{&DefaultReportHandler};

/// Set when this thread's held stack has been destroyed. Trivially
/// destructible, so it stays readable for the rest of the thread's exit.
thread_local bool t_held_stack_gone = false;

/// Owns a thread's held stack and marks it gone on destruction.
struct HeldStackOwner {
  std::vector<const LockClass*> held;
  ~HeldStackOwner() { t_held_stack_gone = true; }
};

/// Per-thread stack of held named locks, freed when the thread exits. Null
/// once it is gone: unlocks that run after the thread's TLS destructors
/// (static destruction on the main thread included) are not tracked.
std::vector<const LockClass*>* HeldStack() {
  if (t_held_stack_gone) return nullptr;
  thread_local HeldStackOwner owner;
  return &owner.held;
}

std::string JoinChain(const std::vector<const LockClass*>& held,
                      const LockClass* acquiring) {
  std::ostringstream out;
  for (const LockClass* c : held) out << c->name << " -> ";
  out << acquiring->name;
  return out.str();
}

void Report(const std::string& report) {
  g_report_count.fetch_add(1, std::memory_order_relaxed);
  ReportHandler handler = g_handler.load(std::memory_order_acquire);
  if (handler == nullptr) handler = &DefaultReportHandler;
  handler(report);
}

const Edge* FindEdge(const Detector& det, const LockClass* from,
                     const LockClass* to) {
  auto it = det.out.find(from);
  if (it == det.out.end()) return nullptr;
  for (const Edge& e : it->second) {
    if (e.to == to) return &e;
  }
  return nullptr;
}

/// DFS: is `target` reachable from `from` over recorded edges? Fills `path`
/// with the class sequence from→…→target on success.
bool Reaches(const Detector& det, const LockClass* from,
             const LockClass* target, std::set<const LockClass*>* visited,
             std::vector<const LockClass*>* path) {
  if (from == target) {
    path->push_back(from);
    return true;
  }
  if (!visited->insert(from).second) return false;
  auto it = det.out.find(from);
  if (it == det.out.end()) return false;
  for (const Edge& e : it->second) {
    if (Reaches(det, e.to, target, visited, path)) {
      path->insert(path->begin(), from);
      return true;
    }
  }
  return false;
}

/// Called with the thread's held stack (non-empty) and the class being
/// acquired. Detects rank inversions, same-class nesting, and cycles in the
/// order graph; records new edges. Runs under the detector mutex.
void CheckOrder(const std::vector<const LockClass*>& held,
                const LockClass* acquiring) {
  const std::string this_chain = JoinChain(held, acquiring);
  Detector& det = GetDetector();
  std::lock_guard<std::mutex> g(det.mu);

  for (const LockClass* h : held) {
    const auto pair = std::make_pair(acquiring, h);
    if (det.reported.count(pair) != 0) continue;

    if (h == acquiring) {
      det.reported.insert(pair);
      std::ostringstream out;
      out << "juggler lockdiag: POTENTIAL DEADLOCK (same-class nesting)\n"
          << "  acquiring '" << acquiring->name << "' (rank "
          << acquiring->rank << ") while already holding a lock of the same "
          << "class\n"
          << "  this thread's chain: " << this_chain << "\n"
          << "  two instances of one class have no defined order; two "
          << "threads nesting in opposite instance order deadlock.";
      Report(out.str());
      continue;
    }

    if (acquiring->rank < h->rank) {
      det.reported.insert(pair);
      std::ostringstream out;
      out << "juggler lockdiag: POTENTIAL DEADLOCK (rank inversion)\n"
          << "  acquiring '" << acquiring->name << "' (rank "
          << acquiring->rank << ")\n"
          << "  while holding '" << h->name << "' (rank " << h->rank << ")\n"
          << "  this thread's chain: " << this_chain << "\n"
          << "  layer order is net(10) < rpc(12) < cluster(14) < service(20)"
          << " < registry(30) < cache(40); outer layers must be acquired "
          << "first.";
      Report(out.str());
      continue;
    }

    // Cycle check: an existing path acquiring→…→h plus this thread's h→…→
    // acquiring closes a loop.
    std::set<const LockClass*> visited;
    std::vector<const LockClass*> path;
    if (Reaches(det, acquiring, h, &visited, &path)) {
      det.reported.insert(pair);
      std::ostringstream out;
      out << "juggler lockdiag: POTENTIAL DEADLOCK (lock-order cycle)\n"
          << "  this thread acquires:   " << this_chain << "\n"
          << "  but a prior order was:  ";
      for (size_t i = 0; i < path.size(); ++i) {
        if (i != 0) out << " -> ";
        out << path[i]->name;
      }
      out << "\n";
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        const Edge* e = FindEdge(det, path[i], path[i + 1]);
        if (e != nullptr) {
          out << "    edge " << path[i]->name << " -> " << path[i + 1]->name
              << " first established by chain: " << e->example_chain << "\n";
        }
      }
      out << "  the two orders cannot both be safe: two threads interleaving "
          << "them deadlock.";
      Report(out.str());
      continue;
    }

    if (FindEdge(det, h, acquiring) == nullptr) {
      det.out[h].push_back(Edge{acquiring, this_chain});
    }
  }
}

}  // namespace

const LockClass* RegisterLockClass(const std::string& name, int rank) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> g(reg.mu);
  auto it = reg.by_name.find(name);
  if (it != reg.by_name.end()) return it->second.get();
  auto cls = std::make_unique<LockClass>(name, rank);
  const LockClass* ptr = cls.get();
  reg.by_name.emplace(name, std::move(cls));
  return ptr;
}

std::vector<LockStats> SnapshotLockStats() {
  std::vector<LockStats> stats;
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> g(reg.mu);
  stats.reserve(reg.by_name.size());
  for (const auto& [name, cls] : reg.by_name) {
    LockStats s;
    s.name = name;
    s.rank = cls->rank;
    s.acquisitions = cls->acquisitions.load(std::memory_order_relaxed);
    s.contended = cls->contended.load(std::memory_order_relaxed);
    s.wait_ns = cls->wait_ns.load(std::memory_order_relaxed);
    s.hold_ns = cls->hold_ns.load(std::memory_order_relaxed);
    s.max_hold_ns = cls->max_hold_ns.load(std::memory_order_relaxed);
    stats.push_back(std::move(s));
  }
  std::sort(stats.begin(), stats.end(),
            [](const LockStats& a, const LockStats& b) {
              return a.name < b.name;
            });
  return stats;
}

void SetDeadlockDetectorEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_release);
}

bool DeadlockDetectorEnabled() {
  return g_enabled.load(std::memory_order_acquire);
}

ReportHandler SetDeadlockReportHandler(ReportHandler handler) {
  if (handler == nullptr) handler = &DefaultReportHandler;
  return g_handler.exchange(handler, std::memory_order_acq_rel);
}

uint64_t DeadlockReportCount() {
  return g_report_count.load(std::memory_order_relaxed);
}

void ResetDeadlockGraphForTesting() {
  Detector& det = GetDetector();
  std::lock_guard<std::mutex> g(det.mu);
  det.out.clear();
  det.reported.clear();
}

void OnAcquired(const LockClass* cls) {
  if (!DeadlockDetectorEnabled()) return;
  std::vector<const LockClass*>* held = HeldStack();
  if (held == nullptr) return;
  if (!held->empty()) CheckOrder(*held, cls);
  held->push_back(cls);
}

void OnReleased(const LockClass* cls) {
  // Always unwind (even when the detector is off) so a disable between
  // acquire and release cannot leave a stale entry behind.
  std::vector<const LockClass*>* held = HeldStack();
  if (held == nullptr) return;
  for (auto it = held->rbegin(); it != held->rend(); ++it) {
    if (*it == cls) {
      held->erase(std::next(it).base());
      return;
    }
  }
}

LockRankAnchor kNetOrder;
LockRankAnchor kClusterOrder;
LockRankAnchor kServiceOrder;
LockRankAnchor kRegistryOrder;
LockRankAnchor kCacheOrder;

}  // namespace juggler::lockdiag

// ---------------------------------------------------------------------------
// Instrumented Mutex slow paths (declared in common/mutex.h). Out of line so
// the header stays dependency-light and the unnamed-mutex fast path inlines
// to a bare std::mutex call.

namespace juggler {

void Mutex::LockInstrumented() {
  if (!mu_.try_lock()) {
    cls_->contended.fetch_add(1, std::memory_order_relaxed);
    const uint64_t wait_start = lockdiag::NowNs();
    mu_.lock();
    cls_->wait_ns.fetch_add(lockdiag::NowNs() - wait_start,
                            std::memory_order_relaxed);
  }
  AssertHeld();  // mu_ is locked above; make that visible to the analysis.
  cls_->acquisitions.fetch_add(1, std::memory_order_relaxed);
  hold_start_ns_ = lockdiag::NowNs();
  lockdiag::OnAcquired(cls_);
}

bool Mutex::TryLockInstrumented() {
  if (!mu_.try_lock()) return false;
  AssertHeld();  // The try_lock above succeeded.
  cls_->acquisitions.fetch_add(1, std::memory_order_relaxed);
  hold_start_ns_ = lockdiag::NowNs();
  lockdiag::OnAcquired(cls_);
  return true;
}

void Mutex::UnlockInstrumented() {
  AssertHeld();  // Callers hold the lock until mu_.unlock() below.
  const uint64_t held_ns = lockdiag::NowNs() - hold_start_ns_;
  cls_->hold_ns.fetch_add(held_ns, std::memory_order_relaxed);
  uint64_t prev_max = cls_->max_hold_ns.load(std::memory_order_relaxed);
  while (held_ns > prev_max &&
         !cls_->max_hold_ns.compare_exchange_weak(
             prev_max, held_ns, std::memory_order_relaxed)) {
  }
  lockdiag::OnReleased(cls_);
  mu_.unlock();
}

void Mutex::BeginWaitInstrumented() {
  // A CondVar wait releases the mutex while blocked: close out the current
  // hold so hold-time excludes the wait, and pop the detector stack so the
  // thread is not considered to hold the lock while asleep.
  AssertHeld();  // Held on entry; the CondVar releases it after this call.
  const uint64_t held_ns = lockdiag::NowNs() - hold_start_ns_;
  cls_->hold_ns.fetch_add(held_ns, std::memory_order_relaxed);
  uint64_t prev_max = cls_->max_hold_ns.load(std::memory_order_relaxed);
  while (held_ns > prev_max &&
         !cls_->max_hold_ns.compare_exchange_weak(
             prev_max, held_ns, std::memory_order_relaxed)) {
  }
  lockdiag::OnReleased(cls_);
}

void Mutex::EndWaitInstrumented() {
  // Woke up holding the mutex again: this is a fresh acquisition.
  AssertHeld();
  cls_->acquisitions.fetch_add(1, std::memory_order_relaxed);
  hold_start_ns_ = lockdiag::NowNs();
  lockdiag::OnAcquired(cls_);
}

}  // namespace juggler
