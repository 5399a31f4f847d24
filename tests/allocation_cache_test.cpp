//===- allocation_cache_test.cpp - TLAB / allocation-bit batching --------------//

#include "heap/AllocationCache.h"
#include "heap/HeapSpace.h"
#include "heap/ShardedFreeList.h"
#include "support/Fences.h"

#include <gtest/gtest.h>

using namespace cgc;

namespace {

class AllocationCacheTest : public ::testing::Test {
protected:
  AllocationCacheTest() : Heap(1u << 20) {}
  HeapSpace Heap;
  AllocationCache Cache;
};

TEST_F(AllocationCacheTest, StartsEmpty) {
  EXPECT_FALSE(Cache.hasRange());
  EXPECT_EQ(Cache.allocate(16, 0, 0), nullptr);
  EXPECT_FALSE(Cache.hasUnflushedObjects());
}

TEST_F(AllocationCacheTest, BumpAllocationWithinRange) {
  Cache.assignRange(Heap.base(), 4096);
  EXPECT_TRUE(Cache.hasRange());
  EXPECT_EQ(Cache.remainingBytes(), 4096u);
  Object *A = Cache.allocate(64, 2, 1);
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(reinterpret_cast<uint8_t *>(A), Heap.base());
  EXPECT_EQ(A->sizeBytes(), 64u);
  EXPECT_EQ(A->numRefs(), 2u);
  Object *B = Cache.allocate(32, 0, 2);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(reinterpret_cast<uint8_t *>(B), Heap.base() + 64);
  EXPECT_EQ(Cache.usedBytes(), 96u);
  EXPECT_EQ(Cache.remainingBytes(), 4096u - 96);
}

TEST_F(AllocationCacheTest, ExhaustionReturnsNull) {
  Cache.assignRange(Heap.base(), 64);
  EXPECT_NE(Cache.allocate(48, 0, 0), nullptr);
  EXPECT_EQ(Cache.allocate(32, 0, 0), nullptr); // 16 left.
  EXPECT_NE(Cache.allocate(16, 0, 0), nullptr);
}

TEST_F(AllocationCacheTest, FlushPublishesBitsWithOneFence) {
  Cache.assignRange(Heap.base(), 4096);
  Object *A = Cache.allocate(64, 0, 0);
  Object *B = Cache.allocate(128, 1, 0);
  Object *C = Cache.allocate(16, 0, 0);
  EXPECT_TRUE(Cache.hasUnflushedObjects());
  EXPECT_FALSE(Heap.allocBits().test(A));

  fenceCounters().reset();
  EXPECT_EQ(Cache.flushAllocBits(Heap.allocBits()), 3u);
  EXPECT_EQ(fenceCounters().count(FenceSite::AllocCacheFlush), 1u);

  EXPECT_TRUE(Heap.allocBits().test(A));
  EXPECT_TRUE(Heap.allocBits().test(B));
  EXPECT_TRUE(Heap.allocBits().test(C));
  // Only object starts carry bits.
  EXPECT_FALSE(Heap.allocBits().test(reinterpret_cast<uint8_t *>(A) + 8));
  EXPECT_FALSE(Cache.hasUnflushedObjects());

  // A second flush with nothing new is free (no fence).
  fenceCounters().reset();
  EXPECT_EQ(Cache.flushAllocBits(Heap.allocBits()), 0u);
  EXPECT_EQ(fenceCounters().count(FenceSite::AllocCacheFlush), 0u);
}

TEST_F(AllocationCacheTest, IncrementalFlushOnlyNewObjects) {
  Cache.assignRange(Heap.base(), 4096);
  Cache.allocate(64, 0, 0);
  EXPECT_EQ(Cache.flushAllocBits(Heap.allocBits()), 1u);
  Cache.allocate(32, 0, 0);
  Cache.allocate(32, 0, 0);
  EXPECT_EQ(Cache.flushAllocBits(Heap.allocBits()), 2u);
}

TEST_F(AllocationCacheTest, RetireReturnsTailToFreeList) {
  ShardedFreeList FL(Heap.base(), Heap.sizeBytes(), /*NumShards=*/1);
  Cache.assignRange(Heap.base(), 4096);
  Cache.allocate(96, 0, 0);
  Cache.flushAllocBits(Heap.allocBits());
  Cache.retire(FL);
  EXPECT_FALSE(Cache.hasRange());
  EXPECT_EQ(FL.freeBytes(), 4096u - 96);
  auto Ranges = FL.snapshotRanges();
  ASSERT_EQ(Ranges.size(), 1u);
  EXPECT_EQ(Ranges[0].first, Heap.base() + 96);
}

TEST_F(AllocationCacheTest, RetireEmptyCacheIsNoop) {
  ShardedFreeList FL(Heap.base(), Heap.sizeBytes(), /*NumShards=*/1);
  Cache.retire(FL);
  EXPECT_EQ(FL.freeBytes(), 0u);
}

TEST_F(AllocationCacheTest, ResetDropsRangeSilently) {
  Cache.assignRange(Heap.base(), 256);
  Cache.allocate(64, 0, 0);
  Cache.flushAllocBits(Heap.allocBits());
  Cache.reset();
  EXPECT_FALSE(Cache.hasRange());
  // Reassign works after reset.
  Cache.assignRange(Heap.base() + 4096, 256);
  EXPECT_NE(Cache.allocate(64, 0, 0), nullptr);
}

} // namespace
