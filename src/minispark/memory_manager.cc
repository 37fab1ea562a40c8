#include "minispark/memory_manager.h"

#include <algorithm>

namespace juggler::minispark {

UnifiedMemoryManager::UnifiedMemoryManager(double unified_bytes,
                                           double min_storage_bytes)
    : unified_(unified_bytes), min_storage_(min_storage_bytes) {}

double UnifiedMemoryManager::AcquireExecution(double bytes) {
  if (bytes <= 0.0) return 0.0;
  double free = unified_ - execution_used_ - storage_used_;
  if (free < bytes) {
    // Execution may reclaim cached blocks, but storage is guaranteed R.
    EvictFor(bytes - free, kInvalidDataset, min_storage_);
    free = unified_ - execution_used_ - storage_used_;
  }
  const double granted = std::max(0.0, std::min(bytes, free));
  execution_used_ += granted;
  peak_execution_used_ = std::max(peak_execution_used_, execution_used_);
  return granted;
}

void UnifiedMemoryManager::ReleaseExecution(double bytes) {
  execution_used_ = std::max(0.0, execution_used_ - bytes);
}

bool UnifiedMemoryManager::StoreBlock(BlockId id, double bytes) {
  if (auto it = index_.find(id); it != index_.end()) {
    // Already cached; treat as a touch.
    lru_.splice(lru_.end(), lru_, it->second);
    return true;
  }
  const double cap = unified_ - execution_used_;
  if (bytes > cap) {
    ++store_rejections_;
    evicted_blocks_.push_back(id);
    return false;
  }
  if (storage_used_ + bytes > cap) {
    // Storage-triggered eviction may go below R (R only guards against
    // *execution* reclaiming storage) but never evicts the same dataset.
    if (!EvictFor(storage_used_ + bytes - cap, id.dataset, 0.0)) {
      ++store_rejections_;
      evicted_blocks_.push_back(id);
      return false;
    }
  }
  lru_.push_back(Block{id, bytes});
  index_.emplace(id, std::prev(lru_.end()));
  const auto d = static_cast<size_t>(id.dataset);
  if (d >= blocks_of_.size()) blocks_of_.resize(d + 1, 0);
  ++blocks_of_[d];
  storage_used_ += bytes;
  ++blocks_stored_;
  return true;
}

bool UnifiedMemoryManager::TouchBlock(BlockId id) {
  auto it = index_.find(id);
  if (it == index_.end()) return false;
  lru_.splice(lru_.end(), lru_, it->second);
  return true;
}

bool UnifiedMemoryManager::HasBlock(BlockId id) const {
  return index_.contains(id);
}

UnifiedMemoryManager::LruList::iterator UnifiedMemoryManager::Remove(
    LruList::iterator block) {
  --blocks_of_[static_cast<size_t>(block->id.dataset)];
  index_.erase(block->id);
  return lru_.erase(block);
}

void UnifiedMemoryManager::DropDataset(DatasetId dataset) {
  // The walk ends at the dataset's last block.
  for (auto it = lru_.begin(); it != lru_.end() && NumBlocksOf(dataset) > 0;) {
    if (it->id.dataset == dataset) {
      storage_used_ -= it->bytes;
      it = Remove(it);
    } else {
      ++it;
    }
  }
  storage_used_ = std::max(0.0, storage_used_);
}

void UnifiedMemoryManager::DropBlock(BlockId id) {
  auto it = index_.find(id);
  if (it == index_.end()) return;
  storage_used_ = std::max(0.0, storage_used_ - it->second->bytes);
  Remove(it->second);
}

std::vector<BlockId> UnifiedMemoryManager::LoseAllBlocks() {
  std::vector<BlockId> lost;
  lost.reserve(lru_.size());
  for (const Block& block : lru_) lost.push_back(block.id);
  blocks_lost_ += static_cast<int64_t>(lru_.size());
  lru_.clear();
  index_.clear();
  std::fill(blocks_of_.begin(), blocks_of_.end(), 0);
  storage_used_ = 0.0;
  return lost;
}

bool UnifiedMemoryManager::EvictFor(double bytes, DatasetId protect,
                                    double floor) {
  double freed = 0.0;
  // Blocks the walk may still evict. Once none is left, the rest of the list
  // belongs to `protect` and would only be skipped.
  size_t evictable = lru_.size() - static_cast<size_t>(NumBlocksOf(protect));
  auto it = lru_.begin();
  while (evictable > 0 && freed < bytes && storage_used_ > floor) {
    if (it->id.dataset == protect) {
      ++it;
      continue;
    }
    freed += it->bytes;
    storage_used_ -= it->bytes;
    ++blocks_evicted_;
    evicted_blocks_.push_back(it->id);
    it = Remove(it);
    --evictable;
  }
  storage_used_ = std::max(0.0, storage_used_);
  return freed >= bytes;
}

}  // namespace juggler::minispark
