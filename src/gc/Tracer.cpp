//===- Tracer.cpp - Parallel marking engine ----------------------------------//

#include "gc/Tracer.h"

#include "mutator/ThreadRegistry.h"
#include "observe/Observe.h"
#include "support/Fences.h"

#include <bitset>
#include <cstdio>
#include <cassert>

using namespace cgc;

/// How many packet entries ahead of the scan the header prefetch runs
/// (the sweep's PrefetchDistance): far enough to cover a cache miss,
/// near enough that the line is still cached when the scan reads it.
static constexpr uint32_t PrefetchDistance = 8;

void Tracer::beginCycle() {
  TracedBytes.store(0, std::memory_order_relaxed);
  TracedObjects.store(0, std::memory_order_relaxed);
  Overflows.store(0, std::memory_order_relaxed);
  Deferred.store(0, std::memory_order_relaxed);
}

void Tracer::markAndQueue(TraceContext &Ctx, Object *Obj) {
  assert(Heap.contains(Obj) && "marking an object outside the heap");
  if (!Heap.markBits().testAndSet(Obj))
    return; // Already marked (another participant owns scanning it).
  if (Ctx.pushWork(Obj) != PushResult::Ok)
    overflow(Obj);
}

void Tracer::overflow(Object *Obj) {
  // Overflow treatment (Section 4.3): the object stays marked; dirty its
  // card so card cleaning retraces it later.
  Heap.cards().dirty(Obj);
  uint64_t Total = Overflows.fetch_add(1, std::memory_order_relaxed) + 1;
  // Size 0: the object's header may not be visible yet under the
  // Section 5.2 protocol, so it must not be read here.
  CGC_OBS_EVENT_P(Obs, Overflow, 0, Total);
}

size_t Tracer::scanObject(TraceContext &Ctx, Object *Obj,
                          const uint8_t *EvacLo, const uint8_t *EvacHi) {
  unsigned NumRefs = Obj->numRefs();
  for (unsigned I = 0; I < NumRefs; ++I) {
    Object *Child = Obj->loadRef(I);
    if (!Child)
      continue;
#ifndef NDEBUG
    if (!Heap.contains(Child)) {
      std::fprintf(stderr,
                   "tracer: junk ref %p in slot %u of %p (off=%zu size=%u "
                   "refs=%u class=%u alloc=%d mark=%d)\n",
                   static_cast<void *>(Child), I, static_cast<void *>(Obj),
                   static_cast<size_t>(reinterpret_cast<uint8_t *>(Obj) -
                                       Heap.base()),
                   Obj->sizeBytes(), Obj->numRefs(), Obj->classId(),
                   Heap.allocBits().test(Obj), Heap.markBits().test(Obj));
      assert(false && "reference slot points outside the heap");
    }
#endif
    // Incremental compaction (Section 2.3): track every reference into
    // the evacuation area, during both concurrent and STW marking.
    const uint8_t *P = reinterpret_cast<const uint8_t *>(Child);
    if (P >= EvacLo && P < EvacHi)
      Compact->recordSlot(Obj, I);
    markAndQueue(Ctx, Child);
  }
  return Obj->sizeBytes();
}

size_t Tracer::traceWork(TraceContext &Ctx, size_t BudgetBytes,
                         bool CheckAllocBits, bool AbortOnStopRequest) {
  size_t Done = 0;
  // Safety classification of the current input packet's entries
  // (indices match the packet's LIFO positions).
  std::bitset<WorkPacket::Capacity> Safe;
  // The evacuation bounds, read once per call: initializeCycle arms the
  // area before any marking starts and the pause disarms it after
  // evacuating, so no traceWork call spans an arm or a disarm. Both are
  // null while disarmed (or without a compactor), and no child passes
  // P >= nullptr && P < nullptr.
  const auto [EvacLo, EvacHi] =
      Compact ? Compact->area() : std::pair<uint8_t *, uint8_t *>();

  while (Done < BudgetBytes) {
    if (AbortOnStopRequest && Registry.stopRequested())
      break;
    if (FI && CheckAllocBits) {
      // Concurrent increments only (CheckAllocBits is false exactly when
      // the world is stopped, and the final drain must run to
      // completion): an injected hit ends the increment early so the
      // pacer falls behind and the watchdog/ladder paths get exercised.
      FI->maybePerturb(FaultSite::TracerStep);
      if (FI->shouldFail(FaultSite::TracerStep))
        break;
    }
    if (!Ctx.ensureInputWork())
      break;
    WorkPacket *In = Ctx.input();
    uint32_t N = In->count();
    if (CheckAllocBits) {
      // Section 5.2 tracer steps 2-3: sample every entry's allocation
      // bit, then one fence for the whole batch. The acquire sample
      // pairs with the allocator's release publication so the ordering
      // is also visible to TSan (see BitVector8::testAcquire).
      for (uint32_t I = 0; I < N; ++I)
        Safe[I] = Heap.allocBits().testAcquire(In->peek(I));
      fence(FenceSite::TracerBatch);
    }
    // The packet is pop-only and LIFO, so the entry scanned D pops from
    // now is peek(Index - D): prime the top D headers, then keep each
    // pop's prefetch exactly D entries below it. Prefetching a header
    // whose allocation bit is unpublished is harmless (it is not a read;
    // the classification above still decides whether it is scanned).
    for (uint32_t I = 1; I <= PrefetchDistance && I <= N; ++I)
      __builtin_prefetch(In->peek(N - I));
    // Counted locally and added to the shared counters once per batch:
    // participants synchronize once per packet, not once per object.
    size_t BatchStart = Done;
    uint64_t BatchObjects = 0;
    uint64_t BatchDeferred = 0;
    // Consume this batch (budget permitting). scanObject can trigger the
    // swap exception, which changes which packet is the input; the
    // classification is only valid for the packet it was taken on, so
    // stop and re-classify when that happens.
    while (Ctx.input() == In && !In->empty() && In->count() <= N &&
           Done < BudgetBytes) {
      uint32_t Index = In->count() - 1;
      if (Index >= PrefetchDistance)
        __builtin_prefetch(In->peek(Index - PrefetchDistance));
      Object *Obj = In->pop();
#ifndef NDEBUG
      // With the world stopped every cache is flushed: a queued object
      // without its allocation bit is a stale corpse (missed live
      // object in an earlier cycle).
      if (!CheckAllocBits && !Heap.allocBits().test(Obj)) {
        uint8_t *G = reinterpret_cast<uint8_t *>(Obj);
        uint8_t *PrevAlloc = Heap.allocBits().findPrevSet(G);
        std::fprintf(
            stderr,
            "tracer: corpse %p in final drain (off=%zu hdr=%016llx "
            "mark=%d; prev alloc granule %p (delta=%td) hdr=%016llx "
            "size=%u refs=%u class=%u mark=%d)\n",
            static_cast<void *>(Obj),
            static_cast<size_t>(G - Heap.base()),
            static_cast<unsigned long long>(
                *reinterpret_cast<uint64_t *>(G)),
            Heap.markBits().test(G), static_cast<void *>(PrevAlloc),
            PrevAlloc ? G - PrevAlloc : 0,
            PrevAlloc ? static_cast<unsigned long long>(
                            *reinterpret_cast<uint64_t *>(PrevAlloc))
                      : 0ull,
            PrevAlloc ? reinterpret_cast<Object *>(PrevAlloc)->sizeBytes()
                      : 0,
            PrevAlloc ? reinterpret_cast<Object *>(PrevAlloc)->numRefs() : 0,
            PrevAlloc ? reinterpret_cast<Object *>(PrevAlloc)->classId() : 0,
            PrevAlloc ? Heap.markBits().test(PrevAlloc) : 0);
        assert(false && "unallocated object queued during the final drain");
      }
#endif
      if (CheckAllocBits && !Safe[Index]) {
        // Allocation bit not visible: the object's initializing stores
        // may not be either. Defer it (Section 5.2 step 4).
        ++BatchDeferred;
        // No empty packet for the deferred side: fall back to the
        // overflow treatment; the object is already marked, so a dirty
        // card gets it retraced once its bits are published.
        if (!Ctx.pushDeferred(Obj))
          overflow(Obj);
        continue;
      }
      Done += scanObject(Ctx, Obj, EvacLo, EvacHi);
      ++BatchObjects;
    }
    // Every exit from the batch (budget reached, swap exception, packet
    // drained) passes here, and the outer loop's exits (stop request,
    // injected TracerStep, no input) sit between batches, so nothing
    // counted is pending when traceWork returns.
    if (Done != BatchStart)
      TracedBytes.fetch_add(Done - BatchStart, std::memory_order_relaxed);
    if (BatchObjects != 0)
      TracedObjects.fetch_add(BatchObjects, std::memory_order_relaxed);
    if (BatchDeferred != 0)
      Deferred.fetch_add(BatchDeferred, std::memory_order_relaxed);
  }
  return Done;
}
