#include "service/prediction_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace juggler::service {

namespace {

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

void AppendDouble(std::string* out, double v) {
  // Bit-exact and fast: no float-to-text rounding on the hot path. Normalize
  // -0.0 so it keys identically to +0.0 (they predict identically).
  if (v == 0.0) v = 0.0;
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  AppendRaw(out, &bits, sizeof(bits));
}

void AppendInt(std::string* out, int64_t v) { AppendRaw(out, &v, sizeof(v)); }

}  // namespace

PredictionCache::Shard::Shard()
    : mu(lockdiag::RegisterLockClass("service.PredictionCache.shard",
                                     lockdiag::kRankCache)) {}

PredictionCache::PredictionCache(const Options& options) {
  const int num_shards = std::max(1, options.num_shards);
  per_shard_capacity_ =
      std::max<size_t>(1, std::max<size_t>(1, options.capacity) / num_shards);
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PredictionCache::Shard& PredictionCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

PredictionCache::Value PredictionCache::Get(const std::string& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

PredictionCache::Value PredictionCache::Peek(const std::string& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;  // Not a counted miss.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

void PredictionCache::Put(const std::string& key, Value value) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.lru.emplace_front(key, std::move(value));
  shard.index.emplace(key, shard.lru.begin());
}

size_t PredictionCache::FlushApp(const std::string& app) {
  // MakeKey() starts every key with `app` + NUL, so a prefix match is exact:
  // "svm" cannot collide with "svm2".
  const std::string prefix = app + '\0';
  size_t removed = 0;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        shard->index.erase(it->first);
        it = shard->lru.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
  }
  return removed;
}

PredictionCache::Stats PredictionCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    stats.size += shard->lru.size();
  }
  return stats;
}

std::vector<size_t> PredictionCache::ShardSizes() const {
  std::vector<size_t> sizes;
  sizes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    sizes.push_back(shard->lru.size());
  }
  return sizes;
}

std::string PredictionCache::MakeKey(
    const std::string& app, uint64_t model_version,
    const minispark::AppParams& params,
    const minispark::ClusterConfig& machine_type,
    const core::Objective& objective) {
  std::string key;
  key.reserve(app.size() + 1 + 8 * 19);
  key.append(app);
  key.push_back('\0');  // App names never contain NUL; unambiguous separator.
  AppendInt(&key, static_cast<int64_t>(model_version));
  AppendDouble(&key, params.examples);
  AppendDouble(&key, params.features);
  AppendInt(&key, params.iterations);
  // Every ClusterConfig field that Recommend() may consult.
  AppendInt(&key, machine_type.num_machines);
  AppendInt(&key, machine_type.cores_per_machine);
  AppendDouble(&key, machine_type.executor_memory_bytes);
  AppendDouble(&key, machine_type.cpu_speed);
  AppendDouble(&key, machine_type.disk_bandwidth);
  AppendDouble(&key, machine_type.network_bandwidth);
  AppendDouble(&key, machine_type.cache_bandwidth);
  AppendDouble(&key, machine_type.task_overhead_ms);
  AppendDouble(&key, machine_type.job_serial_ms);
  AppendDouble(&key, machine_type.shuffle_latency_ms);
  AppendDouble(&key, machine_type.memory_layout.reserved_bytes);
  AppendDouble(&key, machine_type.memory_layout.memory_fraction);
  AppendDouble(&key, machine_type.memory_layout.storage_fraction);
  // Objective weights change both the ordering and the scores, so two
  // weightings must never alias one cache entry.
  AppendDouble(&key, objective.cost);
  AppendDouble(&key, objective.p99_latency);
  AppendDouble(&key, objective.memory);
  return key;
}

}  // namespace juggler::service
