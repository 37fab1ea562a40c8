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
  if (const int32_t node = Find(id); node != kNone) {
    // Already cached; treat as a touch.
    MoveToBack(node);
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
  int32_t node = free_;
  if (node != kNone) {
    free_ = nodes_[static_cast<size_t>(node)].next;
  } else {
    node = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[static_cast<size_t>(node)].id = id;
  nodes_[static_cast<size_t>(node)].bytes = bytes;
  LinkBack(node);
  const auto d = static_cast<size_t>(id.dataset);
  const auto p = static_cast<size_t>(id.partition);
  if (d >= slot_.size()) {
    slot_.resize(d + 1);
    blocks_of_.resize(d + 1, 0);
  }
  if (p >= slot_[d].size()) slot_[d].resize(p + 1, kNone);
  slot_[d][p] = node;
  ++blocks_of_[d];
  ++num_blocks_;
  storage_used_ += bytes;
  ++blocks_stored_;
  return true;
}

bool UnifiedMemoryManager::TouchBlock(BlockId id) {
  const int32_t node = Find(id);
  if (node == kNone) return false;
  MoveToBack(node);
  return true;
}

bool UnifiedMemoryManager::HasBlock(BlockId id) const {
  return Find(id) != kNone;
}

void UnifiedMemoryManager::LinkBack(int32_t node) {
  Node& n = nodes_[static_cast<size_t>(node)];
  n.prev = tail_;
  n.next = kNone;
  if (tail_ != kNone) {
    nodes_[static_cast<size_t>(tail_)].next = node;
  } else {
    head_ = node;
  }
  tail_ = node;
}

void UnifiedMemoryManager::Unlink(int32_t node) {
  const Node& n = nodes_[static_cast<size_t>(node)];
  if (n.prev != kNone) {
    nodes_[static_cast<size_t>(n.prev)].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNone) {
    nodes_[static_cast<size_t>(n.next)].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

void UnifiedMemoryManager::MoveToBack(int32_t node) {
  if (node == tail_) return;
  Unlink(node);
  LinkBack(node);
}

int32_t UnifiedMemoryManager::Remove(int32_t node) {
  Node& n = nodes_[static_cast<size_t>(node)];
  const int32_t next = n.next;
  const auto d = static_cast<size_t>(n.id.dataset);
  --blocks_of_[d];
  --num_blocks_;
  slot_[d][static_cast<size_t>(n.id.partition)] = kNone;
  Unlink(node);
  n.next = free_;
  free_ = node;
  return next;
}

void UnifiedMemoryManager::DropDataset(DatasetId dataset) {
  // The walk ends at the dataset's last block.
  for (int32_t node = head_; node != kNone && NumBlocksOf(dataset) > 0;) {
    const Node& n = nodes_[static_cast<size_t>(node)];
    if (n.id.dataset == dataset) {
      storage_used_ -= n.bytes;
      node = Remove(node);
    } else {
      node = n.next;
    }
  }
  storage_used_ = std::max(0.0, storage_used_);
}

void UnifiedMemoryManager::DropBlock(BlockId id) {
  const int32_t node = Find(id);
  if (node == kNone) return;
  storage_used_ =
      std::max(0.0, storage_used_ - nodes_[static_cast<size_t>(node)].bytes);
  Remove(node);
}

std::vector<BlockId> UnifiedMemoryManager::LoseAllBlocks() {
  std::vector<BlockId> lost;
  lost.reserve(static_cast<size_t>(num_blocks_));
  for (int32_t node = head_; node != kNone;
       node = nodes_[static_cast<size_t>(node)].next) {
    const BlockId id = nodes_[static_cast<size_t>(node)].id;
    lost.push_back(id);
    slot_[static_cast<size_t>(id.dataset)][static_cast<size_t>(id.partition)] =
        kNone;
  }
  blocks_lost_ += num_blocks_;
  nodes_.clear();
  head_ = tail_ = free_ = kNone;
  num_blocks_ = 0;
  std::fill(blocks_of_.begin(), blocks_of_.end(), 0);
  storage_used_ = 0.0;
  return lost;
}

bool UnifiedMemoryManager::EvictFor(double bytes, DatasetId protect,
                                    double floor) {
  double freed = 0.0;
  // Blocks the walk may still evict. Once none is left, the rest of the list
  // belongs to `protect` and would only be skipped.
  int evictable = num_blocks_ - NumBlocksOf(protect);
  int32_t node = head_;
  while (evictable > 0 && freed < bytes && storage_used_ > floor) {
    const Node& n = nodes_[static_cast<size_t>(node)];
    if (n.id.dataset == protect) {
      node = n.next;
      continue;
    }
    freed += n.bytes;
    storage_used_ -= n.bytes;
    ++blocks_evicted_;
    evicted_blocks_.push_back(n.id);
    node = Remove(node);
    --evictable;
  }
  storage_used_ = std::max(0.0, storage_used_);
  return freed >= bytes;
}

}  // namespace juggler::minispark
