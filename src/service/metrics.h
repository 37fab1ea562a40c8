#ifndef JUGGLER_SERVICE_METRICS_H_
#define JUGGLER_SERVICE_METRICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>

namespace juggler::service {

/// \brief Lock-free latency histogram for the online serving path.
///
/// Microsecond samples land in log-spaced buckets (factor 1.5 apart, from
/// 1 us to ~2 hours), so Record() is a couple of relaxed atomic adds and is
/// safe to call from every worker and client thread concurrently.
/// Percentiles are estimated from the bucket boundaries, which is accurate
/// to one bucket width (+/- 50%) — plenty for serving dashboards.
class LatencyHistogram {
 public:
  /// A consistent-enough point-in-time view (counters are read individually;
  /// a snapshot taken while writers are active may be off by in-flight
  /// samples, never torn).
  struct Snapshot {
    uint64_t count = 0;
    double sum_us = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double max_us = 0.0;

    double MeanUs() const { return count > 0 ? sum_us / count : 0.0; }
  };

  void Record(double us) {
    buckets_[BucketIndex(us)].fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
    double seen = max_us_.load(std::memory_order_relaxed);
    while (us > seen &&
           !max_us_.compare_exchange_weak(seen, us, std::memory_order_relaxed)) {
    }
  }

  Snapshot GetSnapshot() const {
    Snapshot snap;
    std::array<uint64_t, kNumBuckets> counts;
    for (int i = 0; i < kNumBuckets; ++i) {
      counts[i] = buckets_[i].load(std::memory_order_relaxed);
      snap.count += counts[i];
    }
    snap.sum_us = sum_us_.load(std::memory_order_relaxed);
    snap.max_us = max_us_.load(std::memory_order_relaxed);
    // Percentiles report a bucket's upper bound, which can overshoot the
    // true maximum; clamp so p95 <= max always holds in dashboards.
    snap.p50_us = std::min(Percentile(counts, snap.count, 0.50), snap.max_us);
    snap.p95_us = std::min(Percentile(counts, snap.count, 0.95), snap.max_us);
    return snap;
  }

 private:
  static constexpr int kNumBuckets = 64;

  /// Upper bound of bucket i: 1.5^(i+1) us.
  static double BucketUpperUs(int i) { return std::pow(1.5, i + 1); }

  static int BucketIndex(double us) {
    if (!(us > 1.0)) return 0;  // Also catches NaN.
    const int i = static_cast<int>(std::log(us) / std::log(1.5));
    return std::min(i, kNumBuckets - 1);
  }

  static double Percentile(const std::array<uint64_t, kNumBuckets>& counts,
                           uint64_t total, double q) {
    if (total == 0) return 0.0;
    const uint64_t rank = static_cast<uint64_t>(std::ceil(q * total));
    uint64_t seen = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      seen += counts[i];
      if (seen >= rank) return BucketUpperUs(i);
    }
    return BucketUpperUs(kNumBuckets - 1);
  }

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<double> sum_us_{0.0};
  std::atomic<double> max_us_{0.0};
};

}  // namespace juggler::service

#endif  // JUGGLER_SERVICE_METRICS_H_
