//===- sweeper_test.cpp - bitwise sweep units -----------------------------------//

#include "gc/Sweeper.h"

#include "gc/WorkerPool.h"
#include "support/Random.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace cgc;

namespace {

class SweeperTest : public ::testing::Test {
protected:
  SweeperTest() : Heap(4u << 20), Sweep(Heap) {}

  /// Fabricates an object at \p Offset: header + alloc bit (+ mark bit).
  Object *plant(size_t Offset, uint32_t SizeBytes, bool Marked) {
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + Offset);
    Obj->initialize(SizeBytes, 0, 0);
    Heap.allocBits().set(Obj);
    if (Marked)
      Heap.markBits().set(Obj);
    return Obj;
  }

  HeapSpace Heap;
  Sweeper Sweep;
};

TEST_F(SweeperTest, EmptyHeapBecomesOneFreeRange) {
  Heap.freeList().clear();
  uint64_t Live = Sweep.sweepAll(nullptr);
  EXPECT_EQ(Live, 0u);
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes());
  EXPECT_EQ(Heap.freeList().numRanges(), 1u);
}

TEST_F(SweeperTest, LiveObjectsCarveTheFreeSpace) {
  Object *A = plant(0, 64, true);
  Object *B = plant(4096, 128, true);
  plant(8192, 256, false); // Dead: reclaimed.
  uint64_t Live = Sweep.sweepAll(nullptr);
  EXPECT_EQ(Live, 64u + 128u);
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes() - 64 - 128);
  // Live objects keep their bits; the dead one lost its alloc bit.
  EXPECT_TRUE(Heap.allocBits().test(A));
  EXPECT_TRUE(Heap.allocBits().test(B));
  EXPECT_FALSE(Heap.allocBits().test(Heap.base() + 8192));
  // Free ranges do not overlap the live objects.
  for (auto [Start, Size] : Heap.freeList().snapshotRanges()) {
    EXPECT_TRUE(Start + Size <= reinterpret_cast<uint8_t *>(A) ||
                Start >= A->end() || true);
    EXPECT_EQ(Heap.allocBits().countInRange(Start, Start + Size), 0u);
  }
}

TEST_F(SweeperTest, SmallHolesStayDark) {
  // Two live objects with an 8-byte hole between them: the hole is not
  // free-listed (below the minimum) but its alloc bits are cleared.
  plant(0, 64, true);
  plant(72, 64, true);
  plant(64, 8, false); // 8-byte dead filler gets an alloc bit.
  Heap.allocBits().set(Heap.base() + 64);
  Sweep.sweepAll(nullptr);
  EXPECT_FALSE(Heap.allocBits().test(Heap.base() + 64));
  for (auto [Start, Size] : Heap.freeList().snapshotRanges())
    EXPECT_GE(Size, 64u);
}

TEST_F(SweeperTest, ObjectSpanningChunkBoundary) {
  // A live object straddling the 1 MB chunk boundary must survive a
  // parallel sweep intact.
  size_t Boundary = Sweeper::ChunkBytes;
  Object *Straddler = plant(Boundary - 64, 4096, true);
  WorkerPool Workers(3);
  uint64_t Live = Sweep.sweepAll(&Workers);
  EXPECT_EQ(Live, 4096u);
  EXPECT_TRUE(Heap.allocBits().test(Straddler));
  for (auto [Start, Size] : Heap.freeList().snapshotRanges()) {
    bool Overlaps = Start < Straddler->end() &&
                    Start + Size > reinterpret_cast<uint8_t *>(Straddler);
    EXPECT_FALSE(Overlaps) << "free range overlaps the straddler";
  }
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes() - 4096);
}

TEST_F(SweeperTest, ObjectCoveringWholeChunk) {
  // A live object larger than a chunk: the middle chunk has nothing to
  // sweep at all.
  Object *Big = plant(512, Sweeper::ChunkBytes + 8192, true);
  uint64_t Live = Sweep.sweepAll(nullptr);
  EXPECT_EQ(Live, Sweeper::ChunkBytes + 8192);
  EXPECT_TRUE(Heap.allocBits().test(Big));
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes() - Big->sizeBytes());
}

TEST_F(SweeperTest, AdjacentFreeRangesCoalesceAcrossChunks) {
  // Everything dead: even with parallel chunk sweeping the free list
  // coalesces back to a single maximal range.
  plant(0, 64, false);
  plant(Sweeper::ChunkBytes + 512, 64, false);
  WorkerPool Workers(3);
  Sweep.sweepAll(&Workers);
  EXPECT_EQ(Heap.freeList().numRanges(), 1u);
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes());
}

TEST_F(SweeperTest, LazySweepOnDemand) {
  plant(0, 64, true);
  Sweep.armLazySweep();
  EXPECT_TRUE(Sweep.lazySweepPending());
  EXPECT_EQ(Heap.freeBytes(), 0u); // Nothing swept yet.
  uint64_t Freed = Sweep.sweepUntilFree(4096);
  EXPECT_GE(Freed, 4096u);
  EXPECT_GT(Heap.freeBytes(), 0u);
  Sweep.finishLazySweep();
  EXPECT_FALSE(Sweep.lazySweepPending());
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes() - 64);
  EXPECT_EQ(Sweep.liveBytes(), 64u);
  // Further lazy calls are no-ops.
  EXPECT_EQ(Sweep.sweepUntilFree(4096), 0u);
}

TEST_F(SweeperTest, SweepAllReportsLiveBytes) {
  size_t Total = 0;
  for (size_t I = 0; I < 100; ++I) {
    plant(I * 1024, 64 + 8 * (I % 5), true);
    Total += 64 + 8 * (I % 5);
  }
  EXPECT_EQ(Sweep.sweepAll(nullptr), Total);
  EXPECT_EQ(Sweep.liveBytes(), Total);
}

/// The same sweep scenarios across free-list shard counts: reclaimed
/// ranges must land in the shard owning their addresses, accounting
/// must not depend on the shard count, and no range may cross a shard
/// boundary.
class ShardedSweeperTest : public ::testing::TestWithParam<unsigned> {
protected:
  ShardedSweeperTest() : Heap(4u << 20, GetParam()), Sweep(Heap) {}

  Object *plant(size_t Offset, uint32_t SizeBytes, bool Marked) {
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + Offset);
    Obj->initialize(SizeBytes, 0, 0);
    Heap.allocBits().set(Obj);
    if (Marked)
      Heap.markBits().set(Obj);
    return Obj;
  }

  void expectShardInvariants() {
    const ShardedFreeList &FL = Heap.freeList();
    for (unsigned S = 0; S < FL.numShards(); ++S)
      for (auto [Start, Size] : FL.shard(S).snapshotRanges()) {
        EXPECT_EQ(FL.shardIndexFor(Start), S);
        EXPECT_EQ(FL.shardIndexFor(Start + Size - 1), S);
      }
  }

  HeapSpace Heap;
  Sweeper Sweep;
};

TEST_P(ShardedSweeperTest, EmptyHeapBecomesOneRangePerShard) {
  Heap.freeList().clear();
  EXPECT_EQ(Sweep.sweepAll(nullptr), 0u);
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes());
  // Boundary splitting caps coalescing at one maximal range per shard.
  EXPECT_EQ(Heap.freeList().numRanges(), Heap.freeList().numShards());
  expectShardInvariants();
}

TEST_P(ShardedSweeperTest, AccountingIsShardCountIndependent) {
  plant(0, 64, true);
  plant(4096, 128, true);
  plant(8192, 256, false);
  plant(Sweeper::ChunkBytes - 64, 4096, true); // Chunk straddler.
  WorkerPool Workers(3);
  uint64_t Live = Sweep.sweepAll(&Workers);
  EXPECT_EQ(Live, 64u + 128u + 4096u);
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes() - 64 - 128 - 4096);
  // Boundary splitting bounds any single range by the shard span.
  EXPECT_LE(Heap.freeList().largestRange(),
            Heap.freeList().shardSpanBytes());
  expectShardInvariants();
  for (auto [Start, Size] : Heap.freeList().snapshotRanges())
    EXPECT_EQ(Heap.allocBits().countInRange(Start, Start + Size), 0u);
}

TEST_P(ShardedSweeperTest, ParallelSweepInsertsIntoOwningShards) {
  // Kill everything: each shard must end up with exactly its span free,
  // coalesced within the shard even though chunk sweeps insert pieces
  // in arbitrary order.
  plant(0, 64, false);
  plant(Sweeper::ChunkBytes + 512, 64, false);
  WorkerPool Workers(3);
  Sweep.sweepAll(&Workers);
  const ShardedFreeList &FL = Heap.freeList();
  EXPECT_EQ(Heap.freeBytes(), Heap.sizeBytes());
  for (unsigned S = 0; S < FL.numShards(); ++S)
    EXPECT_EQ(FL.shard(S).numRanges(), 1u)
        << "shard " << S << " did not coalesce its chunk pieces";
  expectShardInvariants();
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedSweeperTest,
                         ::testing::Values(1u, 2u, 8u));

//===----------------------------------------------------------------------===//
// Sweep equivalence: every sweep mode against a per-granule reference
//===----------------------------------------------------------------------===//

constexpr size_t PropHeapBytes = 4u << 20;
constexpr size_t PropGranules = PropHeapBytes / GranuleBytes;

/// A seeded heap description, planted identically into fresh heaps.
struct HeapLayout {
  struct Planted {
    size_t Offset;
    uint32_t Size;
    bool Marked;
  };
  std::vector<Planted> Objects;
  /// Allocation bits in holes with no object behind them (the dark
  /// crumbs a retired cache or an earlier sub-64 B hole leaves).
  std::vector<size_t> StrayAllocBits;
  /// Evacuation-exclusion window as heap offsets; empty when Lo == Hi.
  size_t ExclLo = 0, ExclHi = 0;
};

/// Random object sizes and marks, holes from 8 B to 256 KB, objects
/// straddling chunk boundaries (some larger than a chunk) and, in most
/// heaps, an exclusion window at a random place.
HeapLayout randomLayout(uint64_t Seed) {
  Random R(Seed);
  HeapLayout L;
  auto granules = [](uint64_t Bytes) { return Bytes & ~(GranuleBytes - 1); };
  size_t Pos = 0;
  for (;;) {
    switch (R.nextBelow(8)) {
    case 0: case 1: case 2:
      break; // No hole: objects touch.
    case 3: case 4:
      Pos += R.nextInRange(1, 7) * GranuleBytes; // Sub-64 B hole.
      break;
    case 5:
      Pos += granules(R.nextInRange(64, 4096));
      break;
    case 6:
      Pos += granules(R.nextInRange(4096, 64u << 10));
      break;
    default:
      Pos += granules(R.nextInRange(64u << 10, 256u << 10));
      break;
    }
    if (Pos < PropHeapBytes && R.nextBool(0.1))
      L.StrayAllocBits.push_back(Pos);
    size_t ToBoundary = Sweeper::ChunkBytes - Pos % Sweeper::ChunkBytes;
    uint64_t Size;
    if (ToBoundary <= 4096 && R.nextBool(0.5))
      Size = granules(ToBoundary + R.nextInRange(8, 8192)); // Straddler.
    else if (R.nextBool(0.9))
      Size = granules(R.nextInRange(16, 1024));
    else if (R.nextBool(0.9))
      Size = granules(R.nextInRange(1024, 64u << 10));
    else
      Size = granules(R.nextInRange(64u << 10, 3 * Sweeper::ChunkBytes / 2));
    if (Pos + Size > PropHeapBytes)
      break;
    L.Objects.push_back({Pos, static_cast<uint32_t>(Size), R.nextBool(0.5)});
    Pos += Size;
  }
  if (!R.nextBool(0.25)) {
    L.ExclLo = granules(R.nextBelow(PropHeapBytes - (256u << 10)));
    L.ExclHi = L.ExclLo + granules(R.nextInRange(4096, 256u << 10));
  }
  return L;
}

/// What a sweep leaves behind.
struct SweepOutcome {
  std::vector<std::pair<size_t, size_t>> FreeRanges; // (offset, size)
  std::vector<bool> AllocBits;
  uint64_t LiveBytes = 0;
  size_t FreeBytes = 0;
};

/// The reference: classifies every granule as covered by a marked
/// object or not, then applies the sweep's rules one by one. A run is
/// cut at chunk boundaries and around the exclusion window; its
/// allocation bits are cleared; a piece of at least 64 B is split at
/// shard boundaries, pieces under 64 B are dropped, and adjacent pieces
/// of at least 4 KB inside one shard coalesce.
SweepOutcome referenceSweep(const HeapLayout &L, size_t ShardSpan) {
  SweepOutcome Out;
  std::vector<bool> Live(PropGranules, false);
  Out.AllocBits.assign(PropGranules, false);
  for (const auto &O : L.Objects) {
    Out.AllocBits[O.Offset / GranuleBytes] = true;
    if (!O.Marked)
      continue;
    Out.LiveBytes += O.Size;
    for (size_t G = O.Offset / GranuleBytes;
         G < (O.Offset + O.Size) / GranuleBytes; ++G)
      Live[G] = true;
  }
  for (size_t Off : L.StrayAllocBits)
    Out.AllocBits[Off / GranuleBytes] = true;
  auto Excluded = [&L](size_t G) {
    return G * GranuleBytes >= L.ExclLo && G * GranuleBytes < L.ExclHi;
  };
  const size_t ChunkGranules = Sweeper::ChunkBytes / GranuleBytes;
  std::vector<std::pair<size_t, size_t>> Pieces;
  for (size_t G = 0; G < PropGranules;) {
    if (Live[G] || Excluded(G)) {
      ++G;
      continue;
    }
    size_t ChunkEnd = (G / ChunkGranules + 1) * ChunkGranules;
    size_t End = G;
    while (End < ChunkEnd && !Live[End] && !Excluded(End))
      Out.AllocBits[End++] = false;
    size_t From = G * GranuleBytes, To = End * GranuleBytes;
    G = End;
    if (To - From < 64)
      continue;
    while (From < To) {
      size_t PieceEnd = std::min(To, (From / ShardSpan + 1) * ShardSpan);
      if (PieceEnd - From >= 64)
        Pieces.emplace_back(From, PieceEnd - From);
      From = PieceEnd;
    }
  }
  for (auto [Start, Size] : Pieces) {
    if (!Out.FreeRanges.empty()) {
      auto &[PrevStart, PrevSize] = Out.FreeRanges.back();
      if (PrevStart + PrevSize == Start && PrevSize >= 4096 && Size >= 4096 &&
          PrevStart / ShardSpan == Start / ShardSpan) {
        PrevSize += Size;
        continue;
      }
    }
    Out.FreeRanges.emplace_back(Start, Size);
  }
  for (auto [Start, Size] : Out.FreeRanges)
    Out.FreeBytes += Size;
  return Out;
}

enum class SweepMode { Serial, OneWorker, ThreeWorkers, Lazy };

/// Plants \p L into a fresh heap, sweeps it in \p Mode and reads back
/// the outcome.
SweepOutcome sweepLayout(const HeapLayout &L, unsigned Shards, SweepMode Mode,
                         size_t &ShardSpan) {
  HeapSpace Heap(PropHeapBytes, Shards);
  ShardSpan = Heap.freeList().shardSpanBytes();
  for (const auto &O : L.Objects) {
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + O.Offset);
    Obj->initialize(O.Size, 0, 0);
    Heap.allocBits().set(Obj);
    if (O.Marked)
      Heap.markBits().set(Obj);
  }
  for (size_t Off : L.StrayAllocBits)
    Heap.allocBits().set(Heap.base() + Off);
  Sweeper Sweep(Heap);
  if (L.ExclLo < L.ExclHi)
    Sweep.setEvacuationExclusion(Heap.base() + L.ExclLo,
                                 Heap.base() + L.ExclHi);
  SweepOutcome Out;
  switch (Mode) {
  case SweepMode::Serial:
    Out.LiveBytes = Sweep.sweepAll(nullptr);
    break;
  case SweepMode::OneWorker:
  case SweepMode::ThreeWorkers: {
    WorkerPool Workers(Mode == SweepMode::OneWorker ? 1 : 3);
    Out.LiveBytes = Sweep.sweepAll(&Workers);
    break;
  }
  case SweepMode::Lazy:
    Sweep.armLazySweep();
    Sweep.sweepUntilFree(1);
    Sweep.finishLazySweep();
    EXPECT_FALSE(Sweep.lazySweepPending());
    Out.LiveBytes = Sweep.liveBytes();
    break;
  }
  Out.FreeBytes = Heap.freeBytes();
  for (auto [Start, Size] : Heap.freeList().snapshotRanges())
    Out.FreeRanges.emplace_back(static_cast<size_t>(Start - Heap.base()),
                                Size);
  Out.AllocBits.resize(PropGranules);
  for (size_t G = 0; G < PropGranules; ++G)
    Out.AllocBits[G] = Heap.allocBits().test(Heap.base() + G * GranuleBytes);
  return Out;
}

class SweepEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SweepEquivalenceTest, EveryModeMatchesThePerGranuleReference) {
  const unsigned Shards = GetParam();
  uint64_t Seed = testSeed(0x5eed5eedull + Shards * 2, "SweepEquivalence");
  for (uint64_t Heap = 0; Heap < 3; ++Heap) {
    HeapLayout L = randomLayout(Seed + Heap * 0x9e3779b97f4a7c15ull);
    size_t ShardSpan = 0;
    for (SweepMode Mode : {SweepMode::Serial, SweepMode::OneWorker,
                           SweepMode::ThreeWorkers, SweepMode::Lazy}) {
      SCOPED_TRACE(::testing::Message()
                   << "heap " << Heap << " mode " << static_cast<int>(Mode));
      SweepOutcome Got = sweepLayout(L, Shards, Mode, ShardSpan);
      SweepOutcome Want = referenceSweep(L, ShardSpan);
      EXPECT_EQ(Got.LiveBytes, Want.LiveBytes);
      EXPECT_EQ(Got.FreeBytes, Want.FreeBytes);
      EXPECT_EQ(Got.FreeRanges, Want.FreeRanges);
      EXPECT_TRUE(Got.AllocBits == Want.AllocBits) << "allocation bits differ";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, SweepEquivalenceTest,
                         ::testing::Values(1u, 2u, 8u));

TEST(SweepLockCount, ChunkCostsItsBatchesPlusTheShardsItTouches) {
  // 8 shards over 4 MB: chunk 0 covers shards 0 and 1. A 64 B live
  // object every 256 B leaves one 192 B dead run per slot, except for a
  // gap around the shard boundary that leaves one run straddling it.
  HeapSpace Heap(4u << 20, 8);
  ASSERT_EQ(Heap.freeList().shardSpanBytes(), 512u << 10);
  const size_t Boundary = Heap.freeList().shardSpanBytes();
  for (size_t Off = 0; Off < Sweeper::ChunkBytes; Off += 256) {
    if (Off + 4096 > Boundary && Off < Boundary + 4096)
      continue;
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + Off);
    Obj->initialize(64, 0, 0);
    Heap.allocBits().set(Obj);
    Heap.markBits().set(Obj);
  }
  // Dead runs of chunk 0: one after each live object (the last one runs
  // to the chunk end).
  size_t DeadRuns = Heap.markBits().countInRange(
      Heap.base(), Heap.base() + Sweeper::ChunkBytes);
  Sweeper Sweep(Heap);
  Sweep.armLazySweep();
  uint64_t Before = Heap.freeList().lockAcquisitions();
  ASSERT_GT(Sweep.sweepUntilFree(1), 0u); // Sweeps chunk 0 only.
  ASSERT_TRUE(Sweep.sweepPendingAt(Heap.base() + Sweeper::ChunkBytes));
  uint64_t Locks = Heap.freeList().lockAcquisitions() - Before;
  size_t Batches =
      (DeadRuns + Sweeper::ReleaseBatchCap - 1) / Sweeper::ReleaseBatchCap;
  EXPECT_LE(Locks, Batches + 2) << DeadRuns << " dead runs";
  EXPECT_EQ(Heap.freeList().numRanges(), DeadRuns + 1)
      << "the straddling run lands in both shards";
}


} // namespace
