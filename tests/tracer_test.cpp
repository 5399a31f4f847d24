//===- tracer_test.cpp - marking engine units -----------------------------------//

#include "gc/Tracer.h"

#include "mutator/ThreadRegistry.h"
#include "support/Fences.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace cgc;

namespace {

class TracerTest : public ::testing::Test {
protected:
  TracerTest()
      : Heap(2u << 20), Pool(16), Trace(Heap, Pool, Registry), Ctx(Pool) {
    Heap.freeList().clear();
  }

  /// Plants an allocated object whose allocation bit is published.
  Object *plant(size_t Offset, uint16_t NumRefs) {
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + Offset);
    Obj->initialize(
        static_cast<uint32_t>(Object::requiredSize(8, NumRefs)), NumRefs, 0);
    Heap.allocBits().set(Obj);
    return Obj;
  }

  /// Plants an object WITHOUT publishing its allocation bit (fresh cache
  /// contents, Section 5.2).
  Object *plantUnpublished(size_t Offset, uint16_t NumRefs) {
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + Offset);
    Obj->initialize(
        static_cast<uint32_t>(Object::requiredSize(8, NumRefs)), NumRefs, 0);
    return Obj;
  }

  HeapSpace Heap;
  PacketPool Pool;
  ThreadRegistry Registry;
  Tracer Trace;
  TraceContext Ctx;
};

TEST_F(TracerTest, MarkAndQueueMarksOnce) {
  Object *Obj = plant(0, 0);
  Trace.beginCycle();
  Trace.markAndQueue(Ctx, Obj);
  EXPECT_TRUE(Heap.markBits().test(Obj));
  Trace.markAndQueue(Ctx, Obj); // Second call is a no-op.
  size_t Traced = Trace.traceWork(Ctx, SIZE_MAX, true, false);
  EXPECT_EQ(Traced, Obj->sizeBytes()); // Scanned exactly once.
  Ctx.release();
}

TEST_F(TracerTest, TransitiveMarkingThroughPackets) {
  // A chain of 100 published objects.
  std::vector<Object *> Chain;
  for (int I = 0; I < 100; ++I)
    Chain.push_back(plant(static_cast<size_t>(I) * 64, 1));
  for (int I = 0; I + 1 < 100; ++I)
    Chain[I]->storeRefRaw(0, Chain[I + 1]);
  Trace.beginCycle();
  Trace.markAndQueue(Ctx, Chain[0]);
  size_t Traced = Trace.traceWork(Ctx, SIZE_MAX, true, false);
  Ctx.release();
  EXPECT_EQ(Traced, 100u * Chain[0]->sizeBytes());
  for (Object *Obj : Chain)
    EXPECT_TRUE(Heap.markBits().test(Obj));
  EXPECT_TRUE(Pool.allPacketsEmptyAndIdle());
}

TEST_F(TracerTest, BudgetBoundsTheIncrement) {
  for (int I = 0; I < 50; ++I) {
    Object *Obj = plant(static_cast<size_t>(I) * 64, 0);
    Trace.markAndQueue(Ctx, Obj);
  }
  size_t ObjBytes = Object::requiredSize(8, 0);
  size_t Traced = Trace.traceWork(Ctx, 10 * ObjBytes, true, false);
  EXPECT_GE(Traced, 10 * ObjBytes);
  EXPECT_LT(Traced, 50 * ObjBytes);
  // The rest is still queued; a second increment finishes it.
  size_t Rest = Trace.traceWork(Ctx, SIZE_MAX, true, false);
  EXPECT_EQ(Traced + Rest, 50 * ObjBytes);
  Ctx.release();
}

TEST_F(TracerTest, ConservativeWordFiltering) {
  Object *Obj = plant(0, 0);
  Trace.beginCycle();
  Trace.markConservativeWord(Ctx, reinterpret_cast<uintptr_t>(Obj));
  // Junk: misaligned, outside, unpublished granule.
  Trace.markConservativeWord(Ctx, reinterpret_cast<uintptr_t>(Obj) + 4);
  Trace.markConservativeWord(Ctx, 0x12345678);
  Trace.markConservativeWord(
      Ctx, reinterpret_cast<uintptr_t>(Heap.base() + 4096));
  size_t Traced = Trace.traceWork(Ctx, SIZE_MAX, true, false);
  Ctx.release();
  EXPECT_EQ(Traced, Obj->sizeBytes());
  EXPECT_FALSE(Heap.markBits().test(Heap.base() + 4096));
}

TEST_F(TracerTest, UnpublishedObjectsAreDeferredNotScanned) {
  // An unpublished object queued for tracing must go to the Deferred
  // pool (its header/slots may not be visible yet on weak hardware).
  Object *Fresh = plantUnpublished(0, 1);
  Trace.beginCycle();
  Trace.markAndQueue(Ctx, Fresh);
  size_t Traced = Trace.traceWork(Ctx, SIZE_MAX, /*CheckAllocBits=*/true,
                                  false);
  EXPECT_EQ(Traced, 0u);
  EXPECT_EQ(Trace.deferredCount(), 1u);
  Ctx.release();
  EXPECT_TRUE(Pool.hasDeferred());
  // The "cache flush" publishes the bit; redistribution makes the object
  // traceable.
  Heap.allocBits().set(Fresh);
  Pool.redistributeDeferred();
  size_t Traced2 = Trace.traceWork(Ctx, SIZE_MAX, true, false);
  EXPECT_EQ(Traced2, Fresh->sizeBytes());
  Ctx.release();
  EXPECT_TRUE(Pool.allPacketsEmptyAndIdle());
}

TEST_F(TracerTest, TracerBatchFencePerInputPacket) {
  for (int I = 0; I < 10; ++I) {
    Object *Obj = plant(static_cast<size_t>(I) * 64, 0);
    Trace.markAndQueue(Ctx, Obj);
  }
  fenceCounters().reset();
  Trace.traceWork(Ctx, SIZE_MAX, /*CheckAllocBits=*/true, false);
  // One batch fence for the whole packet of 10 objects, not one each.
  EXPECT_LE(fenceCounters().count(FenceSite::TracerBatch), 2u);
  EXPECT_GE(fenceCounters().count(FenceSite::TracerBatch), 1u);
  Ctx.release();
}

TEST_F(TracerTest, OverflowDirtiesTheCard) {
  // A pool of 2 packets: marking more than 2 * Capacity roots overflows.
  PacketPool TinyPool(2);
  Tracer TinyTrace(Heap, TinyPool, Registry);
  TraceContext TinyCtx(TinyPool);
  TinyTrace.beginCycle();
  size_t Planted = 2u * WorkPacket::Capacity + 50;
  for (size_t I = 0; I < Planted; ++I) {
    Object *Obj = plant(I * 64, 0);
    TinyTrace.markAndQueue(TinyCtx, Obj);
  }
  EXPECT_GT(TinyTrace.overflowCount(), 0u);
  // Every overflow victim is marked and sits on a dirty card.
  EXPECT_GE(Heap.cards().countDirty(), 1u);
  size_t Marked =
      Heap.markBits().countInRange(Heap.base(), Heap.base() + Planted * 64);
  EXPECT_EQ(Marked, Planted);
  while (TinyCtx.popWork())
    ;
  TinyCtx.release();
}

TEST_F(TracerTest, CycleCountersReset) {
  Object *Obj = plant(0, 0);
  Trace.beginCycle();
  Trace.markAndQueue(Ctx, Obj);
  Trace.traceWork(Ctx, SIZE_MAX, true, false);
  Ctx.release();
  EXPECT_GT(Trace.cycleTracedBytes(), 0u);
  Trace.beginCycle();
  EXPECT_EQ(Trace.cycleTracedBytes(), 0u);
  EXPECT_EQ(Trace.overflowCount(), 0u);
  EXPECT_EQ(Trace.deferredCount(), 0u);
}

TEST_F(TracerTest, AddTracedBytesFeedsTheFormulaT) {
  Trace.beginCycle();
  Trace.addTracedBytes(4096);
  EXPECT_EQ(Trace.cycleTracedBytes(), 4096u);
}

TEST_F(TracerTest, SharedCountersMatchReturnsOnEveryExit) {
  // Three packets' worth of roots, so calls end between batches as well
  // as inside one.
  size_t Planted = 2u * WorkPacket::Capacity + 100;
  size_t ObjBytes = Object::requiredSize(8, 0);
  Trace.beginCycle();
  for (size_t I = 0; I < Planted; ++I)
    Trace.markAndQueue(Ctx, plant(I * 64, 0));
  uint64_t Returned = 0;
  auto expectFlushed = [&] {
    EXPECT_EQ(Trace.cycleTracedBytes(), Returned);
    EXPECT_EQ(Trace.cycleTracedObjects(), Returned / ObjBytes);
  };

  // Budget reached in the middle of a packet.
  Returned += Trace.traceWork(Ctx, 10 * ObjBytes, true, false);
  EXPECT_EQ(Returned, 10 * ObjBytes);
  expectFlushed();

  // Stop request: the call returns at its first batch boundary.
  Registry.stopTheWorld(nullptr, Heap.allocBits());
  Returned += Trace.traceWork(Ctx, SIZE_MAX, true,
                              /*AbortOnStopRequest=*/true);
  Registry.resumeTheWorld();
  EXPECT_EQ(Returned, 10 * ObjBytes);
  expectFlushed();

  // Injected TracerStep: the second loop head ends the call after one
  // batch, with work still queued.
  FaultPlan Plan;
  Plan.failEveryNth(FaultSite::TracerStep, 2);
  FaultInjector Inject(Plan);
  Tracer Faulty(Heap, Pool, Registry, nullptr, &Inject);
  Faulty.beginCycle();
  uint64_t FaultyReturned = Faulty.traceWork(Ctx, SIZE_MAX, true, false);
  EXPECT_EQ(Inject.injected(FaultSite::TracerStep), 1u);
  EXPECT_GT(FaultyReturned, 0u);
  EXPECT_LT(FaultyReturned + Returned, Planted * ObjBytes);
  EXPECT_EQ(Faulty.cycleTracedBytes(), FaultyReturned);
  EXPECT_EQ(Faulty.cycleTracedObjects(), FaultyReturned / ObjBytes);

  // Drained to the end.
  Returned += Trace.traceWork(Ctx, SIZE_MAX, true, false);
  expectFlushed();
  EXPECT_EQ(Returned + FaultyReturned, Planted * ObjBytes);
  Ctx.release();
  EXPECT_TRUE(Pool.allPacketsEmptyAndIdle());
}

TEST_F(TracerTest, FourThreadsCountTheReachableSetExactly) {
  // Objects [0, Reachable) form a binary tree rooted at 0 whose right
  // slots, past the leaves, point back up the tree; the rest is garbage
  // pointing into it. Sizes vary, so bytes and objects check separately.
  constexpr size_t Total = 12000;
  constexpr size_t Reachable = 9000;
  PacketPool BigPool(64);
  Tracer Shared(Heap, BigPool, Registry);
  std::vector<Object *> Objs;
  size_t Offset = 0;
  uint64_t ReachableBytes = 0;
  for (size_t I = 0; I < Total; ++I) {
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + Offset);
    uint32_t Size =
        static_cast<uint32_t>(Object::requiredSize(8 * (I % 5), 2));
    Obj->initialize(Size, 2, 0);
    Heap.allocBits().set(Obj);
    Objs.push_back(Obj);
    Offset += Size;
    if (I < Reachable)
      ReachableBytes += Size;
  }
  ASSERT_LE(Offset, Heap.sizeBytes());
  for (size_t I = 0; I < Total; ++I) {
    if (I >= Reachable) {
      Objs[I]->storeRefRaw(0, Objs[I % Reachable]);
      continue;
    }
    if (2 * I + 1 < Reachable)
      Objs[I]->storeRefRaw(0, Objs[2 * I + 1]);
    Objs[I]->storeRefRaw(1, 2 * I + 2 < Reachable ? Objs[2 * I + 2]
                                                   : Objs[I / 3]);
  }

  Shared.beginCycle();
  {
    TraceContext RootCtx(BigPool);
    Shared.markAndQueue(RootCtx, Objs[0]);
    RootCtx.release();
  }
  std::atomic<uint64_t> Returned{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      TraceContext Local(BigPool);
      uint64_t Sum = 0;
      for (;;) {
        // A small budget ends most calls in the middle of a packet.
        size_t Traced = Shared.traceWork(Local, 4096, true, false);
        Sum += Traced;
        if (Traced != 0)
          continue;
        Local.release();
        if (BigPool.allPacketsEmptyAndIdle())
          break;
        std::this_thread::yield();
      }
      Returned.fetch_add(Sum, std::memory_order_relaxed);
    });
  for (std::thread &T : Threads)
    T.join();

  ASSERT_EQ(Shared.overflowCount(), 0u);
  EXPECT_EQ(Returned.load(std::memory_order_relaxed), ReachableBytes);
  EXPECT_EQ(Shared.cycleTracedBytes(), ReachableBytes);
  EXPECT_EQ(Shared.cycleTracedObjects(), Reachable);
  for (size_t I = 0; I < Total; ++I)
    ASSERT_EQ(Heap.markBits().test(Objs[I]), I < Reachable) << I;
}

TEST_F(TracerTest, EverySlotIntoTheArmedAreaIsRecorded) {
  // Holders outside the area point at two targets inside it and at one
  // object outside; evacuation fixes exactly the recorded slots.
  constexpr size_t AreaBytes = 256u << 10;
  constexpr unsigned NumHolders = 40;
  Compactor Compact(Heap, AreaBytes);
  Tracer EvacTrace(Heap, Pool, Registry, &Compact);
  // Evacuation targets come from the free list.
  Heap.freeList().addRange(Heap.base() + (1u << 20), 1u << 20);
  std::vector<Object *> Targets, Holders;
  for (unsigned I = 0; I < 2 * NumHolders; ++I)
    Targets.push_back(plant(I * 64, 0));
  Object *Outside = plant(AreaBytes, 0);
  for (unsigned H = 0; H < NumHolders; ++H) {
    Object *Holder = plant(AreaBytes + 64 + H * 64, 3);
    Holder->storeRefRaw(0, Targets[2 * H]);
    Holder->storeRefRaw(1, Outside);
    Holder->storeRefRaw(2, Targets[2 * H + 1]);
    Holders.push_back(Holder);
  }

  Compact.armAreaForTest(Heap.base(), Heap.base() + AreaBytes);
  EvacTrace.beginCycle();
  for (Object *Holder : Holders)
    EvacTrace.markAndQueue(Ctx, Holder);
  EvacTrace.traceWork(Ctx, SIZE_MAX, true, false);
  Ctx.release();

  Compactor::Stats S = Compact.evacuate(Registry);
  EXPECT_EQ(S.SlotRecords, 2u * NumHolders);
  EXPECT_EQ(S.SlotsFixed, 2u * NumHolders);
  EXPECT_EQ(S.EvacuatedObjects, 2u * NumHolders);
  for (Object *Holder : Holders) {
    for (unsigned Slot : {0u, 2u}) {
      uint8_t *Ref = reinterpret_cast<uint8_t *>(Holder->loadRef(Slot));
      EXPECT_GE(Ref, Heap.base() + AreaBytes) << "slot left in the area";
    }
    EXPECT_EQ(Holder->loadRef(1), Outside);
  }
}

} // namespace
