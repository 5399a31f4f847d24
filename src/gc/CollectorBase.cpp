//===- CollectorBase.cpp - Shared stop-the-world machinery --------------------//

#include "gc/CollectorBase.h"

#include "gc/HeapVerifier.h"
#include "support/Timing.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace cgc;

Collector::~Collector() = default;

bool CollectorBase::acquireCollectLock(MutatorContext *Ctx,
                                       uint64_t ObservedCompleted) {
  while (!C.CollectMutex.try_lock()) {
    if (Ctx)
      C.Registry.poll(*Ctx, C.Heap.allocBits());
    std::this_thread::yield();
    if (C.CompletedCycles.load(std::memory_order_acquire) !=
        ObservedCompleted)
      return false; // Someone else finished a cycle for us.
  }
  return true;
}

void CollectorBase::initializeCycle(unsigned ConcurrentCleaningPasses) {
  // The previous cycle's lazy sweep must complete before its mark bits
  // are reused.
  C.Sweep.finishLazySweep();
  C.Heap.markBits().clearAll();
  C.Heap.cards().clearAll();
  C.Trace.beginCycle();
  C.Cleaner.beginCycle(ConcurrentCleaningPasses);
  uint64_t Cycle = C.CycleNumber.fetch_add(1, std::memory_order_release) + 1;
  // Incremental compaction: choose the area to evacuate before any
  // marking starts (Section 2.3). The fragmentation-guided selection
  // runs here because the free list is fully populated — the previous
  // generation's sweep (lazy or not) finished above. Under lazy sweep
  // the evacuation still happens inside the pause: sweepWorld sweeps
  // enough chunks in-pause for target space and excludes the armed
  // area from the whole sweep generation.
  if (C.Options.CompactEveryNCycles != 0 &&
      Cycle % C.Options.CompactEveryNCycles == 0)
    C.Compact.armForCycle();
}

void CollectorBase::scanAllStacks(TraceContext &Ctx) {
  uint64_t Cycle = C.CycleNumber.load(std::memory_order_relaxed);
  C.Registry.forEach([&](MutatorContext &M) {
    M.withRoots([&](const std::vector<uintptr_t> &Roots) {
      for (uintptr_t Word : Roots)
        C.Trace.markConservativeWord(Ctx, Word);
    });
    M.StackScanCycle.store(Cycle, std::memory_order_release);
  });
}

void CollectorBase::drainAllPackets() {
  C.Workers.runParallel([this](unsigned) {
    TraceContext Ctx(C.Pool);
    for (;;) {
      size_t Traced = C.Trace.traceWork(Ctx, 256u << 10,
                                        /*CheckAllocBits=*/false,
                                        /*AbortOnStopRequest=*/false);
      if (Traced != 0)
        continue;
      Ctx.release();
      if (C.Pool.allPacketsEmptyAndIdle())
        return;
      std::this_thread::yield();
    }
  });
}

void CollectorBase::parallelFinalMark(CycleRecord &Record) {
  // With the world stopped every cache has been flushed, so deferred
  // objects are safe to trace now: put them back in circulation.
  C.Pool.redistributeDeferred();

  for (;;) {
    Stopwatch CleanTimer;
    size_t Registered = C.Cleaner.beginFinalPass();
    if (Registered != 0) {
      C.Workers.runParallel([this](unsigned) {
        TraceContext Ctx(C.Pool);
        while (C.Cleaner.cleanSome(Ctx, 16) != 0)
          ;
        Ctx.release();
      });
    }
    Record.FinalCardCleanMs += CleanTimer.elapsedMillis();

    Stopwatch MarkTimer;
    drainAllPackets();
    Record.FinalMarkMs += MarkTimer.elapsedMillis();

    // The pass cleaned every registered card, including the leftovers
    // of an interrupted concurrent pass, so only marking or cleaning
    // overflows can have left work: they re-dirty cards. Loop until
    // none remain (rare — requires packet-pool exhaustion).
    if (C.Heap.cards().countDirty() == 0)
      break;
  }
  assert(C.Pool.allPacketsEmptyAndIdle() && "packets left after final mark");
}

void CollectorBase::runFullStwCycle(MutatorContext *Ctx) {
  CycleRecord Record;
  Record.Concurrent = false;
  uint64_t SyncOpsBefore = C.Pool.stats().SyncOps;

  CGC_OBS_EVENT(C.Obs, StwBegin,
                C.CycleNumber.load(std::memory_order_relaxed) + 1, 2);
  Stopwatch Pause;
  C.Registry.stopTheWorld(Ctx, C.Heap.allocBits());
  Record.StopMs = Pause.elapsedMillis();

  initializeCycle(/*ConcurrentCleaningPasses=*/0);
  Record.CycleNumber = C.CycleNumber.load(std::memory_order_relaxed);

  // Publish every cache's allocation bits (threads are quiescent; parked
  // threads flushed on their way in, this covers the master and idlers).
  C.Registry.forEach([this](MutatorContext &M) {
    M.cache().flushAllocBits(C.Heap.allocBits());
  });

  Stopwatch ScanTimer;
  {
    TraceContext RootCtx(C.Pool);
    scanAllStacks(RootCtx);
    RootCtx.release();
  }
  Record.StackRescanMs = ScanTimer.elapsedMillis();

  // parallelFinalMark (not a bare drain): marking overflows under packet
  // pressure fall back to mark-and-dirty-card, and those cards must be
  // cleaned before sweeping — in a pure STW cycle just like in the
  // concurrent finish.
  parallelFinalMark(Record);
  Record.BytesTracedFinal = C.Trace.cycleTracedBytes();
  Record.ObjectsTraced = C.Trace.cycleTracedObjects();

  sweepWorld(Record);
  Record.PauseMs = Pause.elapsedMillis();
  Record.SyncOps = C.Pool.stats().SyncOps - SyncOpsBefore;

  CGC_OBS_EVENT(C.Obs, StwEnd, Record.CycleNumber,
                static_cast<uint64_t>(Record.PauseMs * 1e6));
  recordCycleObservability(Record);
  C.Stats.addCycle(Record);
  CGC_OBS_EVENT(C.Obs, CycleComplete, Record.CycleNumber, 0);
  C.CompletedCycles.fetch_add(1, std::memory_order_release);
  C.Registry.resumeTheWorld();
}

void CollectorBase::sweepWorld(CycleRecord &Record) {
  if (C.Options.VerifyEachCycle) {
    HeapVerifier Verifier(C.Heap);
    VerifyResult Result = Verifier.verify(C.Registry, /*CheckMarks=*/true);
    if (!Result.Ok) {
      std::fprintf(stderr,
                   "cgc: heap verification failed: %s\n"
                   "cgc: cycle=%llu overflows=%llu deferred=%llu "
                   "cleaned-conc=%llu cleaned-final=%llu dirty-now=%zu "
                   "pool-empty-idle=%d has-deferred=%d\n",
                   Result.Error.c_str(),
                   static_cast<unsigned long long>(
                       C.CycleNumber.load(std::memory_order_relaxed)),
                   static_cast<unsigned long long>(C.Trace.overflowCount()),
                   static_cast<unsigned long long>(C.Trace.deferredCount()),
                   static_cast<unsigned long long>(
                       C.Cleaner.cleanedConcurrent()),
                   static_cast<unsigned long long>(C.Cleaner.cleanedFinal()),
                   C.Heap.cards().countDirty(),
                   C.Pool.allPacketsEmptyAndIdle(), C.Pool.hasDeferred());
      std::abort();
    }
  }

  Stopwatch SweepTimer;
  // Every thread's cache is quiescent (world stopped) and flushed; drop
  // ownership so the sweep can reclaim the unused tails (they are
  // unmarked memory the bitwise sweep re-derives — retiring them to the
  // free list here would double-own every byte once the sweep
  // re-inserts it).
  C.Registry.forEach([](MutatorContext &M) {
    assert(!M.cache().hasUnflushedObjects() && "unflushed cache at sweep");
    M.cache().reset();
  });

  // Latch the sweep generation's evacuation-exclusion window before the
  // sweep is armed: the armed area's bits and free ranges belong to the
  // compactor's rebuild, and a late lazy chunk must never re-insert
  // them (it could hand a future evacuation an in-area target, or
  // double-add the rebuilt ranges). The window deliberately persists
  // past disarm, until the next generation's sweepWorld replaces it.
  {
    auto [AreaLo, AreaHi] = C.Compact.area();
    C.Sweep.setEvacuationExclusion(AreaLo, AreaHi);
  }

  if (C.Options.LazySweep) {
    C.Sweep.armLazySweep();
    if (C.Compact.armed()) {
      // Evacuation targets come from the free list, which lazy arming
      // just cleared: sweep enough outside-area chunks in-pause to
      // cover the worst-case evacuation demand (the exclusion window
      // keeps every reclaimed range a valid target source).
      C.Sweep.sweepUntilFree(2 * C.Options.EvacuationAreaBytes);
    }
    Record.SweepMs = SweepTimer.elapsedMillis();
    // Live bytes are only known once the lazy sweep completes; report
    // the occupied estimate at pause end instead.
    Record.LiveBytesAfter = C.Heap.occupiedBytes();
    CGC_OBS_EVENT(C.Obs, SweepSlice, Record.LiveBytesAfter, 1);
  } else {
    Record.LiveBytesAfter = C.Sweep.sweepAll(&C.Workers);
    Record.SweepMs = SweepTimer.elapsedMillis();
    CGC_OBS_EVENT(C.Obs, SweepSlice, Record.LiveBytesAfter, 0);
  }

  if (C.Compact.armed()) {
    // "After sweep we evacuate the objects from the area and fix up the
    // references to the evacuated objects" (Section 2.3).
    Stopwatch CompactTimer;
    auto [AreaLo, AreaHi] = C.Compact.area();
    CGC_OBS_EVENT(C.Obs, CompactionBegin, Record.CycleNumber,
                  static_cast<uint64_t>(AreaHi - AreaLo));
    Compactor::Stats S =
        C.Compact.evacuate(C.Registry, &C.Workers, &C.Sweep);
    Record.CompactionMs = CompactTimer.elapsedMillis();
    Record.CompactionAreasScored = S.AreasScored;
    Record.EvacuatedObjects = S.EvacuatedObjects;
    Record.EvacuatedBytes = S.EvacuatedBytes;
    Record.PinnedObjects = S.PinnedObjects;
    Record.CompactionFailedMoves = S.FailedObjects;
    Record.CompactionSlotsFixed = S.SlotsFixed;
    CGC_OBS_EVENT(C.Obs, CompactionEnd, S.EvacuatedBytes,
                  S.PinnedObjects + S.FailedObjects);
    if (C.Options.VerifyEachCycle) {
      HeapVerifier Verifier(C.Heap);
      VerifyResult Result = Verifier.verify(C.Registry, /*CheckMarks=*/true);
      if (!Result.Ok) {
        std::fprintf(stderr,
                     "cgc: post-compaction verification failed: %s\n",
                     Result.Error.c_str());
        std::abort();
      }
    }
  }

  Record.FreeBytesAfter = C.Heap.freeBytes();
  Record.LargestFreeRangeAfter = C.Heap.freeList().largestRange();
  Record.HeapBytes = C.Heap.sizeBytes();
}

void CollectorBase::recordCycleObservability(const CycleRecord &Record) {
#if CGC_OBSERVE_COMPILED
  if (!C.Obs.enabled())
    return;
  auto ToNs = [](double Ms) {
    return Ms <= 0 ? 0ull : static_cast<uint64_t>(Ms * 1e6);
  };
  MetricsRegistry &M = C.Obs.metrics();
  M.histogram(PauseMetric::TotalPause).record(ToNs(Record.PauseMs));
  M.histogram(PauseMetric::FinalCardClean).record(ToNs(Record.FinalCardCleanMs));
  M.histogram(PauseMetric::FinalMark).record(ToNs(Record.FinalMarkMs));
  M.histogram(PauseMetric::Sweep).record(ToNs(Record.SweepMs));
#else
  (void)Record;
#endif
}
