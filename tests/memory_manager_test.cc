#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "minispark/memory_manager.h"

namespace juggler::minispark {
namespace {

TEST(MemoryManagerTest, StoresWithinCapacity) {
  UnifiedMemoryManager mem(1000, 500);
  EXPECT_TRUE(mem.StoreBlock({0, 0}, 400));
  EXPECT_TRUE(mem.StoreBlock({0, 1}, 400));
  EXPECT_DOUBLE_EQ(mem.storage_used(), 800);
  EXPECT_EQ(mem.num_blocks(), 2);
  EXPECT_TRUE(mem.HasBlock({0, 0}));
  EXPECT_FALSE(mem.HasBlock({0, 2}));
}

TEST(MemoryManagerTest, RejectsBlockLargerThanCapacity) {
  UnifiedMemoryManager mem(1000, 500);
  EXPECT_FALSE(mem.StoreBlock({0, 0}, 1500));
  EXPECT_EQ(mem.store_rejections(), 1);
  EXPECT_EQ(mem.evicted_blocks().size(), 1u);
}

TEST(MemoryManagerTest, EvictsLruOfOtherDataset) {
  UnifiedMemoryManager mem(1000, 0);
  EXPECT_TRUE(mem.StoreBlock({0, 0}, 400));
  EXPECT_TRUE(mem.StoreBlock({0, 1}, 400));
  // Dataset 1 needs 400: evicts the LRU block (0,0) only.
  EXPECT_TRUE(mem.StoreBlock({1, 0}, 400));
  EXPECT_FALSE(mem.HasBlock({0, 0}));
  EXPECT_TRUE(mem.HasBlock({0, 1}));
  EXPECT_TRUE(mem.HasBlock({1, 0}));
  EXPECT_EQ(mem.blocks_evicted(), 1);
}

TEST(MemoryManagerTest, TouchRefreshesLruOrder) {
  UnifiedMemoryManager mem(1000, 0);
  EXPECT_TRUE(mem.StoreBlock({0, 0}, 400));
  EXPECT_TRUE(mem.StoreBlock({0, 1}, 400));
  EXPECT_TRUE(mem.TouchBlock({0, 0}));  // (0,1) becomes LRU.
  EXPECT_TRUE(mem.StoreBlock({1, 0}, 400));
  EXPECT_TRUE(mem.HasBlock({0, 0}));
  EXPECT_FALSE(mem.HasBlock({0, 1}));
}

TEST(MemoryManagerTest, TouchMissingReturnsFalse) {
  UnifiedMemoryManager mem(1000, 0);
  EXPECT_FALSE(mem.TouchBlock({0, 0}));
}

TEST(MemoryManagerTest, NeverEvictsOwnDatasetToAdmitItself) {
  UnifiedMemoryManager mem(1000, 0);
  EXPECT_TRUE(mem.StoreBlock({0, 0}, 600));
  // A second block of dataset 0 cannot evict the first.
  EXPECT_FALSE(mem.StoreBlock({0, 1}, 600));
  EXPECT_TRUE(mem.HasBlock({0, 0}));
  EXPECT_EQ(mem.store_rejections(), 1);
}

TEST(MemoryManagerTest, StoringExistingBlockIsATouch) {
  UnifiedMemoryManager mem(1000, 0);
  EXPECT_TRUE(mem.StoreBlock({0, 0}, 400));
  EXPECT_TRUE(mem.StoreBlock({0, 0}, 400));
  EXPECT_EQ(mem.num_blocks(), 1);
  EXPECT_DOUBLE_EQ(mem.storage_used(), 400);
}

TEST(MemoryManagerTest, ExecutionEvictsStorageOnlyDownToR) {
  UnifiedMemoryManager mem(1000, 600);
  EXPECT_TRUE(mem.StoreBlock({0, 0}, 500));
  EXPECT_TRUE(mem.StoreBlock({0, 1}, 500));  // Storage = 1000.
  // Execution wants 600; it may evict storage down to R=600 only, freeing
  // 400: grants min(600, free after eviction).
  const double granted = mem.AcquireExecution(600);
  EXPECT_NEAR(granted, 500, 1e-9);  // One 500-byte block evicted.
  EXPECT_GE(mem.storage_used(), 500.0);
  EXPECT_LE(mem.storage_used() + mem.execution_used(), 1000.0);
}

TEST(MemoryManagerTest, ExecutionGrantsFreeSpaceWithoutEviction) {
  UnifiedMemoryManager mem(1000, 500);
  EXPECT_TRUE(mem.StoreBlock({0, 0}, 300));
  EXPECT_DOUBLE_EQ(mem.AcquireExecution(500), 500);
  EXPECT_EQ(mem.blocks_evicted(), 0);
  mem.ReleaseExecution(500);
  EXPECT_DOUBLE_EQ(mem.execution_used(), 0);
}

TEST(MemoryManagerTest, StorageCannotGrowIntoExecution) {
  UnifiedMemoryManager mem(1000, 500);
  EXPECT_DOUBLE_EQ(mem.AcquireExecution(700), 700);
  EXPECT_FALSE(mem.StoreBlock({0, 0}, 400));  // Only 300 left.
  EXPECT_TRUE(mem.StoreBlock({0, 1}, 250));
}

TEST(MemoryManagerTest, DropDatasetRemovesAllItsBlocks) {
  UnifiedMemoryManager mem(1000, 0);
  EXPECT_TRUE(mem.StoreBlock({0, 0}, 200));
  EXPECT_TRUE(mem.StoreBlock({1, 0}, 200));
  EXPECT_TRUE(mem.StoreBlock({0, 1}, 200));
  mem.DropDataset(0);
  EXPECT_EQ(mem.num_blocks(), 1);
  EXPECT_EQ(mem.NumBlocksOf(0), 0);
  EXPECT_EQ(mem.NumBlocksOf(1), 1);
  EXPECT_DOUBLE_EQ(mem.storage_used(), 200);
  // Unpersisted blocks are not "evictions".
  EXPECT_TRUE(mem.evicted_blocks().empty());
}

TEST(MemoryManagerTest, ReleaseExecutionClampsAtZero) {
  UnifiedMemoryManager mem(1000, 0);
  mem.ReleaseExecution(100);
  EXPECT_DOUBLE_EQ(mem.execution_used(), 0);
}

TEST(MemoryManagerTest, ZeroExecutionRequestIsFree) {
  UnifiedMemoryManager mem(1000, 0);
  EXPECT_DOUBLE_EQ(mem.AcquireExecution(0), 0);
  EXPECT_DOUBLE_EQ(mem.AcquireExecution(-5), 0);
}

/// Property sweep: after any random op sequence, accounting invariants hold:
/// storage+execution never exceed M, storage_used equals the sum of resident
/// block sizes, and counters are consistent.
class MemoryManagerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MemoryManagerPropertyTest, InvariantsHoldUnderRandomOps) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  const double unified = rng.Uniform(1000, 10000);
  const double min_storage = rng.Uniform(0, unified / 2);
  UnifiedMemoryManager mem(unified, min_storage);
  double exec_held = 0.0;

  for (int step = 0; step < 300; ++step) {
    const int op = static_cast<int>(rng.UniformInt(5));
    const BlockId id{static_cast<DatasetId>(rng.UniformInt(4)),
                     static_cast<int>(rng.UniformInt(8))};
    switch (op) {
      case 0:
        mem.StoreBlock(id, rng.Uniform(50, unified / 2));
        break;
      case 1:
        mem.TouchBlock(id);
        break;
      case 2:
        exec_held += mem.AcquireExecution(rng.Uniform(0, unified / 2));
        break;
      case 3: {
        const double release = rng.Uniform(0, exec_held);
        mem.ReleaseExecution(release);
        exec_held -= release;
        break;
      }
      case 4:
        mem.DropDataset(id.dataset);
        break;
    }
    EXPECT_LE(mem.storage_used() + mem.execution_used(), unified + 1e-6);
    EXPECT_GE(mem.storage_used(), -1e-6);
    EXPECT_GE(mem.execution_used(), -1e-6);
    EXPECT_NEAR(mem.execution_used(), exec_held, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomOps, MemoryManagerPropertyTest,
                         ::testing::Range(0, 20));

/// The per-dataset block counts behind NumBlocksOf() agree with the blocks
/// actually cached, through stores, evictions, drops and executor loss.
class BlockCountPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BlockCountPropertyTest, CountsMatchTheCachedBlocks) {
  constexpr int kDatasets = 4;
  constexpr int kPartitions = 8;
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  const double unified = rng.Uniform(1000, 10000);
  UnifiedMemoryManager mem(unified, rng.Uniform(0, unified / 2));
  double exec_held = 0.0;

  for (int step = 0; step < 300; ++step) {
    const BlockId id{static_cast<DatasetId>(rng.UniformInt(kDatasets)),
                     static_cast<int>(rng.UniformInt(kPartitions))};
    switch (rng.UniformInt(7)) {
      case 0:
      case 1:
        mem.StoreBlock(id, rng.Uniform(50, unified / 4));
        break;
      case 2:
        mem.TouchBlock(id);
        break;
      case 3:
        exec_held += mem.AcquireExecution(rng.Uniform(0, unified / 2));
        break;
      case 4:
        mem.ReleaseExecution(exec_held);
        exec_held = 0.0;
        break;
      case 5:
        if (rng.Bernoulli(0.5)) {
          mem.DropBlock(id);
        } else {
          mem.DropDataset(id.dataset);
        }
        break;
      case 6:
        if (rng.Bernoulli(0.1)) mem.LoseAllBlocks();
        break;
    }
    int total = 0;
    for (DatasetId d = 0; d < kDatasets; ++d) {
      int cached = 0;
      for (int p = 0; p < kPartitions; ++p) cached += mem.HasBlock({d, p});
      ASSERT_EQ(mem.NumBlocksOf(d), cached) << "dataset " << d;
      total += cached;
    }
    ASSERT_EQ(mem.num_blocks(), total);
  }
  EXPECT_EQ(mem.NumBlocksOf(kDatasets + 10), 0);
  EXPECT_EQ(mem.NumBlocksOf(kInvalidDataset), 0);
}

INSTANTIATE_TEST_SUITE_P(RandomOps, BlockCountPropertyTest,
                         ::testing::Range(0, 20));

struct BlockIdHash {
  size_t operator()(const BlockId& id) const noexcept {
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(id.dataset)) << 32) |
        static_cast<uint32_t>(id.partition);
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> 16);
  }
};

/// The list-and-hash manager the index-linked one replaced: a std::list in
/// LRU order plus a hashed index into it. Kept verbatim as the oracle the
/// production manager must match op for op.
class ListLruMemoryManager {
 public:
  ListLruMemoryManager(double unified_bytes, double min_storage_bytes)
      : unified_(unified_bytes), min_storage_(min_storage_bytes) {}

  double AcquireExecution(double bytes) {
    if (bytes <= 0.0) return 0.0;
    double free = unified_ - execution_used_ - storage_used_;
    if (free < bytes) {
      EvictFor(bytes - free, kInvalidDataset, min_storage_);
      free = unified_ - execution_used_ - storage_used_;
    }
    const double granted = std::max(0.0, std::min(bytes, free));
    execution_used_ += granted;
    peak_execution_used_ = std::max(peak_execution_used_, execution_used_);
    return granted;
  }

  void ReleaseExecution(double bytes) {
    execution_used_ = std::max(0.0, execution_used_ - bytes);
  }

  bool StoreBlock(BlockId id, double bytes) {
    if (auto it = index_.find(id); it != index_.end()) {
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

  bool TouchBlock(BlockId id) {
    auto it = index_.find(id);
    if (it == index_.end()) return false;
    lru_.splice(lru_.end(), lru_, it->second);
    return true;
  }

  bool HasBlock(BlockId id) const { return index_.contains(id); }

  void DropDataset(DatasetId dataset) {
    for (auto it = lru_.begin();
         it != lru_.end() && NumBlocksOf(dataset) > 0;) {
      if (it->id.dataset == dataset) {
        storage_used_ -= it->bytes;
        it = Remove(it);
      } else {
        ++it;
      }
    }
    storage_used_ = std::max(0.0, storage_used_);
  }

  void DropBlock(BlockId id) {
    auto it = index_.find(id);
    if (it == index_.end()) return;
    storage_used_ = std::max(0.0, storage_used_ - it->second->bytes);
    Remove(it->second);
  }

  std::vector<BlockId> LoseAllBlocks() {
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

  double storage_used() const { return storage_used_; }
  double execution_used() const { return execution_used_; }
  double peak_execution_used() const { return peak_execution_used_; }
  double storage_available() const {
    return unified_ - execution_used_ - storage_used_;
  }
  int64_t blocks_stored() const { return blocks_stored_; }
  int64_t blocks_evicted() const { return blocks_evicted_; }
  int64_t blocks_lost() const { return blocks_lost_; }
  int64_t store_rejections() const { return store_rejections_; }
  int num_blocks() const { return static_cast<int>(index_.size()); }
  int NumBlocksOf(DatasetId dataset) const {
    const auto d = static_cast<size_t>(dataset);
    return d < blocks_of_.size() ? blocks_of_[d] : 0;
  }
  const std::vector<BlockId>& evicted_blocks() const { return evicted_blocks_; }

 private:
  struct Block {
    BlockId id;
    double bytes;
  };
  using LruList = std::list<Block>;

  bool EvictFor(double bytes, DatasetId protect, double floor) {
    double freed = 0.0;
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

  LruList::iterator Remove(LruList::iterator block) {
    --blocks_of_[static_cast<size_t>(block->id.dataset)];
    index_.erase(block->id);
    return lru_.erase(block);
  }

  double unified_;
  double min_storage_;
  double storage_used_ = 0.0;
  double execution_used_ = 0.0;
  double peak_execution_used_ = 0.0;
  LruList lru_;
  std::unordered_map<BlockId, LruList::iterator, BlockIdHash> index_;
  std::vector<int> blocks_of_;
  int64_t blocks_stored_ = 0;
  int64_t blocks_evicted_ = 0;
  int64_t blocks_lost_ = 0;
  int64_t store_rejections_ = 0;
  std::vector<BlockId> evicted_blocks_;
};

/// Seeded random op sequences drive the production manager and the oracle
/// side by side; after every op both must agree exactly (doubles by ==).
/// Dataset 0 is the "protected" one: it gets most of the stores and large
/// blocks, so other datasets' stores must evict around it and its own stores
/// must skip its blocks. Partition indices run far past any dataset's
/// partition count, and the slot table must grow to them.
class MemoryManagerOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(MemoryManagerOracleTest, MatchesTheListAndHashManager) {
  constexpr int kDatasets = 6;
  Rng rng(static_cast<uint64_t>(GetParam()) * 15485863 + 5);
  const double unified = rng.Uniform(1000, 10000);
  const double min_storage = rng.Uniform(0, unified / 2);
  UnifiedMemoryManager mem(unified, min_storage);
  ListLruMemoryManager ref(unified, min_storage);
  double exec_held = 0.0;

  const auto random_block = [&] {
    const DatasetId d = rng.Bernoulli(0.4)
                            ? 0
                            : static_cast<DatasetId>(rng.UniformInt(kDatasets));
    // Mostly a small partition range, so blocks get re-touched; sometimes
    // far past it.
    const int p = rng.Bernoulli(0.9) ? static_cast<int>(rng.UniformInt(12))
                                     : static_cast<int>(rng.UniformInt(400));
    return BlockId{d, p};
  };

  for (int step = 0; step < 2000; ++step) {
    const BlockId id = random_block();
    const int op = static_cast<int>(rng.UniformInt(10));
    switch (op) {
      case 0:
      case 1:
      case 2: {
        const double bytes = id.dataset == 0 ? rng.Uniform(100, unified / 3)
                                             : rng.Uniform(10, unified / 8);
        ASSERT_EQ(mem.StoreBlock(id, bytes), ref.StoreBlock(id, bytes));
        break;
      }
      case 3:
        ASSERT_EQ(mem.TouchBlock(id), ref.TouchBlock(id));
        break;
      case 4:
        mem.DropBlock(id);
        ref.DropBlock(id);
        break;
      case 5:
        if (rng.Bernoulli(0.3)) {
          mem.DropDataset(id.dataset);
          ref.DropDataset(id.dataset);
        }
        break;
      case 6: {
        const double want = rng.Uniform(0, unified / 2);
        const double granted = mem.AcquireExecution(want);
        ASSERT_EQ(granted, ref.AcquireExecution(want));
        exec_held += granted;
        break;
      }
      case 7: {
        const double release = rng.Uniform(0, exec_held);
        mem.ReleaseExecution(release);
        ref.ReleaseExecution(release);
        exec_held -= release;
        break;
      }
      case 8:
        if (rng.Bernoulli(0.05)) {
          ASSERT_EQ(mem.LoseAllBlocks(), ref.LoseAllBlocks());
        }
        break;
      case 9:
        // An oversized store (rejected unless already cached) and a lookup
        // of the invalid dataset.
        ASSERT_EQ(mem.StoreBlock(id, unified * 2), ref.StoreBlock(id, unified * 2));
        ASSERT_EQ(mem.HasBlock({kInvalidDataset, id.partition}),
                  ref.HasBlock({kInvalidDataset, id.partition}));
        break;
    }

    ASSERT_EQ(mem.evicted_blocks(), ref.evicted_blocks()) << "step " << step;
    ASSERT_EQ(mem.blocks_stored(), ref.blocks_stored());
    ASSERT_EQ(mem.blocks_evicted(), ref.blocks_evicted());
    ASSERT_EQ(mem.blocks_lost(), ref.blocks_lost());
    ASSERT_EQ(mem.store_rejections(), ref.store_rejections());
    ASSERT_EQ(mem.num_blocks(), ref.num_blocks());
    ASSERT_EQ(mem.storage_used(), ref.storage_used());
    ASSERT_EQ(mem.execution_used(), ref.execution_used());
    ASSERT_EQ(mem.peak_execution_used(), ref.peak_execution_used());
    ASSERT_EQ(mem.storage_available(), ref.storage_available());
    for (DatasetId d = kInvalidDataset; d <= kDatasets; ++d) {
      ASSERT_EQ(mem.NumBlocksOf(d), ref.NumBlocksOf(d)) << "dataset " << d;
    }
    for (int p = 0; p < 12; ++p) {
      for (DatasetId d = 0; d < kDatasets; ++d) {
        ASSERT_EQ(mem.HasBlock({d, p}), ref.HasBlock({d, p}));
      }
    }
    ASSERT_EQ(mem.HasBlock(id), ref.HasBlock(id));
  }
  // The final LRU order, read out through executor loss.
  EXPECT_EQ(mem.LoseAllBlocks(), ref.LoseAllBlocks());
}

INSTANTIATE_TEST_SUITE_P(RandomOps, MemoryManagerOracleTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace juggler::minispark
