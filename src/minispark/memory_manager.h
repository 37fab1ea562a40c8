#ifndef JUGGLER_MINISPARK_MEMORY_MANAGER_H_
#define JUGGLER_MINISPARK_MEMORY_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "minispark/types.h"

namespace juggler::minispark {

/// Identifies one cached partition: (dataset, partition index).
struct BlockId {
  DatasetId dataset = kInvalidDataset;
  int partition = 0;

  friend auto operator<=>(const BlockId&, const BlockId&) = default;
};

struct BlockIdHash {
  size_t operator()(const BlockId& id) const noexcept {
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(id.dataset)) << 32) |
        static_cast<uint32_t>(id.partition);
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> 16);
  }
};

/// \brief Per-executor unified memory manager (paper §2.2, Figure 3).
///
/// Mirrors Spark's UnifiedMemoryManager semantics:
///  - execution and storage share one region of `unified` (M) bytes;
///  - execution may evict cached blocks, but never below `min_storage` (R);
///  - storage may grow into unused execution memory, evicting least recently
///    used blocks of *other* datasets when the region is full (a dataset's
///    own blocks are never evicted to admit more of the same dataset,
///    matching Spark's BlockManager rule);
///  - a block larger than what can be freed is simply not cached.
class UnifiedMemoryManager {
 public:
  UnifiedMemoryManager(double unified_bytes, double min_storage_bytes);

  /// Requests execution memory; evicts LRU cached blocks down to R if
  /// needed. Returns the granted amount (<= requested). The shortfall is the
  /// caller's signal to model spilling.
  double AcquireExecution(double bytes);

  /// Releases previously granted execution memory.
  void ReleaseExecution(double bytes);

  /// Attempts to cache a block. Returns true if stored. On false the block
  /// was rejected (and counted as such).
  bool StoreBlock(BlockId id, double bytes);

  /// True if the block is cached; marks it most recently used.
  bool TouchBlock(BlockId id);

  /// True if the block is cached; does not affect LRU order.
  bool HasBlock(BlockId id) const;

  /// Drops all blocks of a dataset (unpersist).
  void DropDataset(DatasetId dataset);

  /// Drops a single block if present (block-wise unpersist).
  void DropBlock(BlockId id);

  /// Executor loss: every cached block vanishes at once. Returns the ids of
  /// the lost blocks so the engine can schedule lineage recomputation.
  /// Lost blocks are counted separately from evictions (`blocks_lost()`,
  /// never `blocks_evicted()`/`evicted_blocks()`): an eviction is a planned
  /// memory-pressure displacement the cache schedule should answer for; a
  /// loss is a failure the recovery layer answers for.
  std::vector<BlockId> LoseAllBlocks();

  double unified_bytes() const { return unified_; }
  double min_storage_bytes() const { return min_storage_; }
  double storage_used() const { return storage_used_; }
  double execution_used() const { return execution_used_; }
  /// High-water mark of execution usage over the manager's lifetime.
  double peak_execution_used() const { return peak_execution_used_; }
  double storage_available() const { return unified_ - execution_used_ - storage_used_; }

  int64_t blocks_stored() const { return blocks_stored_; }
  int64_t blocks_evicted() const { return blocks_evicted_; }
  int64_t blocks_lost() const { return blocks_lost_; }
  int64_t store_rejections() const { return store_rejections_; }
  int num_blocks() const { return static_cast<int>(index_.size()); }

  /// Distinct blocks of `dataset` currently cached.
  int NumBlocksOf(DatasetId dataset) const {
    const auto d = static_cast<size_t>(dataset);
    return d < blocks_of_.size() ? blocks_of_[d] : 0;
  }

  /// All blocks evicted (or rejected) since construction, for cache-stat
  /// aggregation. Unpersisted (dropped) blocks are not included.
  const std::vector<BlockId>& evicted_blocks() const { return evicted_blocks_; }

 private:
  struct Block {
    BlockId id;
    double bytes;
  };
  using LruList = std::list<Block>;

  /// Evicts LRU blocks until at least `bytes` are free for storage, skipping
  /// blocks of `protect` (kInvalidDataset protects nothing) and never letting
  /// storage drop below `floor`. Returns true if the space was freed.
  bool EvictFor(double bytes, DatasetId protect, double floor);

  /// Removes a cached block from the index and the LRU list; returns the
  /// list position after it.
  LruList::iterator Remove(LruList::iterator block);

  double unified_;
  double min_storage_;
  double storage_used_ = 0.0;
  double execution_used_ = 0.0;
  double peak_execution_used_ = 0.0;

  LruList lru_;  // front = least recently used.
  /// Nothing reads the index in key order; the LRU list carries the order.
  std::unordered_map<BlockId, LruList::iterator, BlockIdHash> index_;
  /// blocks_of_[d]: blocks of dataset d in `lru_` (grown on first store).
  std::vector<int> blocks_of_;

  int64_t blocks_stored_ = 0;
  int64_t blocks_evicted_ = 0;
  int64_t blocks_lost_ = 0;
  int64_t store_rejections_ = 0;
  std::vector<BlockId> evicted_blocks_;
};

}  // namespace juggler::minispark

#endif  // JUGGLER_MINISPARK_MEMORY_MANAGER_H_
