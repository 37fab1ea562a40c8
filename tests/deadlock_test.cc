// Tests for the lock diagnostics layer (common/lock_diag.h): the
// potential-deadlock detector must fire on seeded inversions — same-class
// nesting, rank inversion, and an A→B / B→A order cycle — while the
// repository's real lock tree, exercised under the detector, stays silent.
// Also covers the always-on hold-time/contention counters.
//
// The seeded fixtures below deliberately acquire locks in a forbidden order;
// each such line carries an audited NOLINT(deadlock-order) marker.

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/lock_diag.h"
#include "common/mutex.h"
#include "service/prediction_cache.h"
#include "service/thread_pool.h"

namespace juggler {
namespace {

// ReportHandler is a plain function pointer, so captures go through globals.
std::mutex g_reports_mu;
std::vector<std::string> g_reports;

void CaptureReport(const std::string& report) {
  std::lock_guard<std::mutex> lock(g_reports_mu);
  g_reports.push_back(report);
}

std::vector<std::string> TakeReports() {
  std::lock_guard<std::mutex> lock(g_reports_mu);
  std::vector<std::string> out;
  out.swap(g_reports);
  return out;
}

bool AnyReportContains(const std::vector<std::string>& reports,
                       const std::string& needle) {
  for (const auto& r : reports) {
    if (r.find(needle) != std::string::npos) return true;
  }
  return false;
}

// Enables the detector with a capturing handler for the test body, then
// restores the previous handler/enabled state and drops the seeded edges so
// tests cannot poison each other (or the shared graph used by other suites).
class DeadlockDetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TakeReports();
    lockdiag::ResetDeadlockGraphForTesting();
    baseline_count_ = lockdiag::DeadlockReportCount();
    prev_handler_ = lockdiag::SetDeadlockReportHandler(&CaptureReport);
    was_enabled_ = lockdiag::DeadlockDetectorEnabled();
    lockdiag::SetDeadlockDetectorEnabled(true);
  }

  void TearDown() override {
    lockdiag::SetDeadlockDetectorEnabled(was_enabled_);
    lockdiag::SetDeadlockReportHandler(prev_handler_);
    lockdiag::ResetDeadlockGraphForTesting();
    TakeReports();
  }

  uint64_t ReportsSinceSetup() const {
    return lockdiag::DeadlockReportCount() - baseline_count_;
  }

  uint64_t baseline_count_ = 0;
  lockdiag::ReportHandler prev_handler_ = nullptr;
  bool was_enabled_ = false;
};

TEST_F(DeadlockDetectorTest, SeededOrderInversionTripsCycleReport) {
  Mutex a(lockdiag::RegisterLockClass("test.deadlock.A", 50));
  Mutex b(lockdiag::RegisterLockClass("test.deadlock.B", 50));

  {
    // Establishes the edge A -> B. Legal on its own.
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(ReportsSinceSetup(), 0u) << "A->B alone must not report";

  {
    // The reverse order closes the cycle; the detector must fire on the
    // acquisition itself — no actual blocking or second thread needed.
    MutexLock lb(b);
    MutexLock la(a);  // NOLINT(deadlock-order): seeded inversion under test.
  }

  EXPECT_EQ(ReportsSinceSetup(), 1u);
  const auto reports = TakeReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].find("POTENTIAL DEADLOCK (lock-order cycle)"),
            std::string::npos)
      << reports[0];
  // The report must carry both offending chains: this thread's B -> A and
  // the previously established A -> B with its originating chain.
  EXPECT_NE(reports[0].find("test.deadlock.B -> test.deadlock.A"),
            std::string::npos)
      << reports[0];
  EXPECT_NE(reports[0].find("first established by chain: "
                            "test.deadlock.A -> test.deadlock.B"),
            std::string::npos)
      << reports[0];

  // The pair is reported once, not on every repeat acquisition.
  {
    MutexLock lb(b);
    MutexLock la(a);  // NOLINT(deadlock-order): repeat of the same pair.
  }
  EXPECT_EQ(ReportsSinceSetup(), 1u);
}

TEST_F(DeadlockDetectorTest, RankInversionIsReportedDirectly) {
  Mutex outer(
      lockdiag::RegisterLockClass("test.deadlock.service_rank",
                                  lockdiag::kRankService));
  Mutex inner(
      lockdiag::RegisterLockClass("test.deadlock.net_rank",
                                  lockdiag::kRankNet));

  MutexLock lo(outer);
  MutexLock li(inner);  // NOLINT(deadlock-order): net under service.

  const auto reports = TakeReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].find("POTENTIAL DEADLOCK (rank inversion)"),
            std::string::npos)
      << reports[0];
  EXPECT_TRUE(AnyReportContains(reports, "test.deadlock.net_rank"));
  EXPECT_TRUE(AnyReportContains(reports, "test.deadlock.service_rank"));
}

TEST_F(DeadlockDetectorTest, SameClassNestingIsReported) {
  const lockdiag::LockClass* cls =
      lockdiag::RegisterLockClass("test.deadlock.same_class", 60);
  Mutex first(cls);
  Mutex second(cls);

  MutexLock l1(first);
  MutexLock l2(second);  // NOLINT(deadlock-order): same class, no order.

  const auto reports = TakeReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].find("POTENTIAL DEADLOCK (same-class nesting)"),
            std::string::npos)
      << reports[0];
}

TEST_F(DeadlockDetectorTest, ConsistentOrderNeverReports) {
  Mutex net(lockdiag::RegisterLockClass("test.deadlock.order_net",
                                        lockdiag::kRankNet));
  Mutex service(lockdiag::RegisterLockClass("test.deadlock.order_service",
                                            lockdiag::kRankService));
  Mutex cache(lockdiag::RegisterLockClass("test.deadlock.order_cache",
                                          lockdiag::kRankCache));

  for (int i = 0; i < 100; ++i) {
    MutexLock l1(net);
    MutexLock l2(service);
    MutexLock l3(cache);
  }
  EXPECT_EQ(ReportsSinceSetup(), 0u);
  EXPECT_TRUE(TakeReports().empty());
}

TEST_F(DeadlockDetectorTest, RealServingLockTreeIsCycleFree) {
  // Exercise the real service-tier lock classes under the detector:
  // ThreadPool workers (service.ThreadPool.mu) hammering the sharded
  // prediction cache (service.PredictionCache.shard) from multiple threads.
  service::ThreadPool::Options pool_opts;
  pool_opts.num_threads = 4;
  service::ThreadPool pool(pool_opts);

  service::PredictionCache::Options cache_opts;
  cache_opts.capacity = 64;
  cache_opts.num_shards = 4;
  service::PredictionCache cache(cache_opts);

  const auto value = std::make_shared<
      const std::vector<core::Recommendation>>();
  for (int i = 0; i < 200; ++i) {
    const std::string key = "app-" + std::to_string(i % 23);
    const Status s = pool.Submit([&cache, key, value] {
      if (cache.Get(key) == nullptr) cache.Put(key, value);
    });
    (void)s;  // ResourceExhausted under backpressure is fine here.
  }
  pool.Shutdown();

  EXPECT_EQ(ReportsSinceSetup(), 0u);
  const auto reports = TakeReports();
  EXPECT_TRUE(reports.empty())
      << "real lock tree reported: " << reports.front();
}

// Each thread's held-lock stack is freed when the thread exits. A
// thread_local built before the stack is destroyed after it, so a lock its
// destructor takes runs with the stack gone: it must not touch the freed
// stack (an ASan build sees a use after free) and must not report.
TEST_F(DeadlockDetectorTest, LockAfterTheThreadsHeldStackIsFreedIsSafe) {
  struct LocksOnExit {
    Mutex* mu = nullptr;
    ~LocksOnExit() {
      if (mu == nullptr) return;
      MutexLock lock(*mu);  // NOLINT(lock-in-destructor): under test.
    }
  };
  Mutex first(lockdiag::RegisterLockClass("test.deadlock.exit_first", 50));
  Mutex on_exit(lockdiag::RegisterLockClass("test.deadlock.exit_late", 50));
  std::thread([&] {
    thread_local LocksOnExit locks_on_exit;  // Built before the stack.
    locks_on_exit.mu = &on_exit;
    MutexLock lock(first);  // The thread's first named lock builds it.
  }).join();
  EXPECT_EQ(ReportsSinceSetup(), 0u);
  for (const auto& s : lockdiag::SnapshotLockStats()) {
    if (s.name == "test.deadlock.exit_late") {
      EXPECT_EQ(s.acquisitions, 1u);
    }
  }
}

TEST_F(DeadlockDetectorTest, HoldAndContentionCountersAreMonotonic) {
  const lockdiag::LockClass* cls =
      lockdiag::RegisterLockClass("test.deadlock.contend", 70);
  Mutex mu(cls);

  const auto stats_for = [&](const char* name) {
    for (const auto& s : lockdiag::SnapshotLockStats()) {
      if (s.name == name) return s;
    }
    return lockdiag::LockStats{};
  };

  const auto burst = [&mu] {
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&mu] {
        for (int i = 0; i < 200; ++i) {
          MutexLock lock(mu);
          std::this_thread::yield();
        }
      });
    }
    for (auto& th : threads) th.join();
  };

  burst();
  const auto first = stats_for("test.deadlock.contend");
  EXPECT_GE(first.acquisitions, 400u);
  EXPECT_GT(first.hold_ns, 0u);
  EXPECT_GE(first.max_hold_ns, first.hold_ns / first.acquisitions);

  burst();
  const auto second = stats_for("test.deadlock.contend");
  EXPECT_GE(second.acquisitions, first.acquisitions + 400);
  EXPECT_GE(second.hold_ns, first.hold_ns);
  EXPECT_GE(second.wait_ns, first.wait_ns);
  EXPECT_GE(second.contended, first.contended);
  EXPECT_GE(second.max_hold_ns, first.max_hold_ns);

  EXPECT_EQ(ReportsSinceSetup(), 0u);
}

}  // namespace
}  // namespace juggler
