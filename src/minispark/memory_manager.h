#ifndef JUGGLER_MINISPARK_MEMORY_MANAGER_H_
#define JUGGLER_MINISPARK_MEMORY_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "minispark/types.h"

namespace juggler::minispark {

/// Identifies one cached partition: (dataset, partition index).
struct BlockId {
  DatasetId dataset = kInvalidDataset;
  int partition = 0;

  friend auto operator<=>(const BlockId&, const BlockId&) = default;
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
///
/// The LRU order is a list of nodes in one vector, linked by int32 indices,
/// with removed nodes kept on a free list for the next store. Blocks are
/// found through a slot table indexed by (dataset, partition) that grows on
/// demand (a partition index may run past its dataset's partition count), so
/// a lookup, touch or drop never hashes or allocates, and a store allocates
/// only while the table or the node vector is still growing.
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
  int num_blocks() const { return num_blocks_; }

  /// Distinct blocks of `dataset` currently cached.
  int NumBlocksOf(DatasetId dataset) const {
    const auto d = static_cast<size_t>(dataset);
    return d < blocks_of_.size() ? blocks_of_[d] : 0;
  }

  /// All blocks evicted (or rejected) since construction, for cache-stat
  /// aggregation. Unpersisted (dropped) blocks are not included.
  const std::vector<BlockId>& evicted_blocks() const { return evicted_blocks_; }

 private:
  static constexpr int32_t kNone = -1;

  /// A cached block's node in the LRU list; `prev`/`next` are node indices
  /// (kNone at the ends). A free node's `next` links the free list.
  struct Node {
    BlockId id;
    double bytes = 0.0;
    int32_t prev = kNone;
    int32_t next = kNone;
  };

  /// The node holding `id`, or kNone.
  int32_t Find(BlockId id) const {
    const auto d = static_cast<size_t>(id.dataset);
    const auto p = static_cast<size_t>(id.partition);
    if (d >= slot_.size() || p >= slot_[d].size()) return kNone;
    return slot_[d][p];
  }

  /// Appends `node` at the most recently used end.
  void LinkBack(int32_t node);
  /// Takes `node` out of the LRU list (it stays allocated).
  void Unlink(int32_t node);
  /// Moves a cached block to the most recently used end.
  void MoveToBack(int32_t node);

  /// Evicts LRU blocks until at least `bytes` are free for storage, skipping
  /// blocks of `protect` (kInvalidDataset protects nothing) and never letting
  /// storage drop below `floor`. Returns true if the space was freed.
  bool EvictFor(double bytes, DatasetId protect, double floor);

  /// Removes a cached block from the slot table and the LRU list and frees
  /// its node; returns the node after it.
  int32_t Remove(int32_t node);

  double unified_;
  double min_storage_;
  double storage_used_ = 0.0;
  double execution_used_ = 0.0;
  double peak_execution_used_ = 0.0;

  std::vector<Node> nodes_;
  int32_t head_ = kNone;  // Least recently used.
  int32_t tail_ = kNone;  // Most recently used.
  int32_t free_ = kNone;  // Free-list head.
  int num_blocks_ = 0;
  /// slot_[d][p]: the node of block (d, p), or kNone. Rows grow to the
  /// largest partition index stored, which may exceed the dataset's count.
  std::vector<std::vector<int32_t>> slot_;
  /// blocks_of_[d]: cached blocks of dataset d (grown on first store).
  std::vector<int> blocks_of_;

  int64_t blocks_stored_ = 0;
  int64_t blocks_evicted_ = 0;
  int64_t blocks_lost_ = 0;
  int64_t store_rejections_ = 0;
  std::vector<BlockId> evicted_blocks_;
};

}  // namespace juggler::minispark

#endif  // JUGGLER_MINISPARK_MEMORY_MANAGER_H_
