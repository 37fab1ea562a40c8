#include "online/feedback_collector.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/lock_diag.h"
#include "online/online_metrics.h"

namespace juggler::online {

namespace {

bool Valid(const Observation& o) {
  return !o.app.empty() && o.app.size() <= kMaxAppBytes &&
         std::isfinite(o.params.examples) && o.params.examples > 0.0 &&
         std::isfinite(o.params.features) && o.params.features > 0.0 &&
         o.params.iterations >= 0 && std::isfinite(o.value) && o.value >= 0.0 &&
         std::isfinite(o.predicted) && o.predicted >= 0.0;
}

}  // namespace

FeedbackCollector::FeedbackCollector(const Options& options)
    : capacity_(std::max<size_t>(1, options.capacity)),
      mu_(lockdiag::RegisterLockClass("online.FeedbackCollector.buffer",
                                      lockdiag::kRankLeaf)) {}

bool FeedbackCollector::Add(Observation observation) {
  std::vector<Observation> one;
  one.push_back(std::move(observation));
  return AddAll(std::move(one)) == 1;
}

size_t FeedbackCollector::AddAll(std::vector<Observation> batch) {
  // Validate outside the lock, keeping arrival order, then append the whole
  // batch under one hold: the event loops ingest here, so the hold stays a
  // few deque pushes long.
  size_t accepted = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!Valid(batch[i])) continue;
    if (i != accepted) batch[accepted] = std::move(batch[i]);
    ++accepted;
  }
  const size_t invalid = batch.size() - accepted;
  size_t displaced = 0;
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < accepted; ++i) {
      while (buffer_.size() >= capacity_) {
        buffer_.pop_front();
        ++displaced;
      }
      buffer_.push_back(std::move(batch[i]));
    }
  }
  if (accepted > 0) {
    ingested_.fetch_add(accepted, std::memory_order_relaxed);
    RecordIngested(accepted);
  }
  if (invalid + displaced > 0) {
    dropped_.fetch_add(invalid + displaced, std::memory_order_relaxed);
    RecordDropped(invalid + displaced);
  }
  return accepted;
}

Status FeedbackCollector::AddEncoded(std::string_view bytes) {
  auto batch = DecodeObservationBatch(bytes);
  if (!batch.ok()) return batch.status();
  AddAll(std::move(batch).value());
  return Status::OK();
}

std::vector<Observation> FeedbackCollector::SnapshotApp(
    const std::string& app) const {
  std::vector<Observation> out;
  MutexLock lock(mu_);
  for (const Observation& o : buffer_) {
    if (o.app == app) out.push_back(o);
  }
  return out;
}

std::vector<Observation> FeedbackCollector::TakeApp(const std::string& app) {
  std::vector<Observation> out;
  MutexLock lock(mu_);
  auto kept = buffer_.begin();
  for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
    if (it->app == app) {
      out.push_back(std::move(*it));
    } else {
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
  }
  buffer_.erase(kept, buffer_.end());
  return out;
}

std::vector<std::string> FeedbackCollector::Apps() const {
  // Copy each distinct name once, not every buffered record's.
  std::vector<std::string> out;
  {
    MutexLock lock(mu_);
    std::unordered_set<std::string_view> seen;
    for (const Observation& o : buffer_) {
      if (seen.insert(o.app).second) out.push_back(o.app);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

FeedbackCollector::Stats FeedbackCollector::GetStats() const {
  Stats stats;
  stats.ingested = ingested_.load(std::memory_order_relaxed);
  stats.dropped = dropped_.load(std::memory_order_relaxed);
  MutexLock lock(mu_);
  stats.buffered = buffer_.size();
  return stats;
}

}  // namespace juggler::online
