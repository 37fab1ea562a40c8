#include <gtest/gtest.h>

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

}  // namespace
}  // namespace juggler::minispark
