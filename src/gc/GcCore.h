//===- GcCore.h - Shared collector machinery bundle -------------*- C++ -*-===//
///
/// \file
/// Owns every subsystem both collectors build on: the heap, the packet
/// pool, the thread registry, the tracer, the card cleaner, the sweeper,
/// the STW worker pool, the pacer and the statistics sink — plus the
/// collection lock and cycle counters that serialize collection cycles
/// against each other and against thread attach/detach.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_GC_GCCORE_H
#define CGC_GC_GCCORE_H

#include "gc/CardCleaner.h"
#include "gc/Compactor.h"
#include "gc/GcOptions.h"
#include "gc/GcStats.h"
#include "gc/Pacer.h"
#include "gc/Sweeper.h"
#include "gc/Tracer.h"
#include "gc/WorkerPool.h"
#include "heap/HeapSpace.h"
#include "mutator/ThreadRegistry.h"
#include "observe/Observe.h"
#include "workpackets/PacketPool.h"

#include <atomic>
#include <mutex>

namespace cgc {

/// Phase of the mostly-concurrent cycle state machine.
enum class GcPhase : int {
  /// No cycle in progress.
  Idle,
  /// Concurrent tracing phase is active.
  Concurrent
};

/// Bundle of all collector subsystems (one per GcHeap).
struct GcCore {
  explicit GcCore(const GcOptions &Opts)
      : Options(Opts), Inject(Opts.Faults),
        Obs(Opts.Observe, Opts.ObserveRingEvents),
        Heap(Opts.HeapBytes,
             // Clamp so every shard can hand out a whole allocation
             // cache; FreeListShards = 1 keeps the legacy single list.
             ShardedFreeList::resolveShardCount(
                 Opts.FreeListShards, Opts.HeapBytes, Opts.AllocCacheBytes),
             &Inject,
             // Ranges below the large-object threshold cannot be relied
             // on for cache refills, so they don't count as refillable
             // (the pacer's stranding-aware kickoff input, DESIGN.md §10).
             Opts.LargeObjectBytes),
        Pool(Opts.NumWorkPackets, &Inject, &Obs),
        Compact(Heap, Opts.EvacuationAreaBytes, &Inject),
        Trace(Heap, Pool, Registry, &Compact, &Inject, &Obs),
        Cleaner(Heap, Registry, &Inject, &Obs), Sweep(Heap, &Obs),
        Workers(Opts.GcWorkerThreads, &Inject),
        Pace(Opts, Heap.sizeBytes(), &Obs) {
    // Arm the registry's deadline-aware cooperation waits before any
    // thread can attach (DESIGN.md §13).
    Registry.configureStallDefense(
        uint64_t(Opts.StwGraceMicros) * 1000ull,
        uint64_t(Opts.FenceGraceMicros) * 1000ull, &Inject, &Obs);
  }

  GcOptions Options;
  /// Fault injector shared by every subsystem below (declared first so
  /// it outlives and predates them all). Disarmed unless Options.Faults
  /// enables chaos mode.
  FaultInjector Inject;
  /// Observability hub (declared before every subsystem that records
  /// into it, for the same lifetime reason as Inject). Disabled unless
  /// Options.Observe.
  GcObserver Obs;
  HeapSpace Heap;
  PacketPool Pool;
  ThreadRegistry Registry;
  Compactor Compact;
  Tracer Trace;
  CardCleaner Cleaner;
  Sweeper Sweep;
  WorkerPool Workers;
  Pacer Pace;
  GcStatsCollector Stats;

  /// Serializes collection cycles, thread attach/detach and heap
  /// teardown. Waiters must keep polling (they may have to park).
  std::mutex CollectMutex;

  /// Number of the cycle currently (or last) started; 0 = none yet.
  std::atomic<uint64_t> CycleNumber{0};
  /// Cycles fully completed (sweep done).
  std::atomic<uint64_t> CompletedCycles{0};
  /// Current phase.
  std::atomic<int> Phase{static_cast<int>(GcPhase::Idle)};

  GcPhase phase() const {
    return static_cast<GcPhase>(Phase.load(std::memory_order_acquire));
  }
  void setPhase(GcPhase P) {
    Phase.store(static_cast<int>(P), std::memory_order_release);
  }

  /// Free bytes as the pacer must see them, the one definition every
  /// kickoff and lag check reads: the free lists' refillable aggregate.
  /// Ranges too small to refill an allocation cache are stranded and
  /// must count as pressure (DESIGN.md §9).
  size_t pacerVisibleFreeBytes() const { return Heap.refillableFreeBytes(); }
};

} // namespace cgc

#endif // CGC_GC_GCCORE_H
