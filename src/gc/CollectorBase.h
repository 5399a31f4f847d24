//===- CollectorBase.h - Shared stop-the-world machinery --------*- C++ -*-===//
///
/// \file
/// Machinery shared by both collectors: acquiring the collection lock
/// while staying responsive to safepoints, cycle initialization, the
/// fully parallel stop-the-world completion (final card cleaning, stack
/// rescans, marking drain, bitwise sweep — Section 2.2), and cycle
/// record bookkeeping.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_GC_COLLECTORBASE_H
#define CGC_GC_COLLECTORBASE_H

#include "gc/Collector.h"
#include "gc/GcCore.h"

namespace cgc {

/// Base class implementing the phases both collectors share.
class CollectorBase : public Collector {
public:
  explicit CollectorBase(GcCore &Core) : C(Core) {}

protected:
  /// Acquires the collection lock, polling (and possibly parking) while
  /// waiting so a concurrent stop-the-world can proceed. Returns false
  /// when a full cycle completed while waiting (the caller's reason to
  /// collect is gone).
  bool acquireCollectLock(MutatorContext *Ctx, uint64_t ObservedCompleted);

  /// Cycle initialization (Section 2.1): completes any pending lazy
  /// sweep, clears mark bits and the card table, resets the tracer and
  /// cleaner, and bumps the cycle number. Caller holds the collect lock.
  void initializeCycle(unsigned ConcurrentCleaningPasses);

  /// Conservatively scans every attached thread's roots into \p Ctx's
  /// packets and stamps their StackScanCycle.
  void scanAllStacks(TraceContext &Ctx);

  /// Runs the parallel final marking with the world stopped: repeated
  /// final card-cleaning passes (overflows re-dirty cards, so the loop
  /// runs until no dirty card remains) interleaved with packet draining.
  /// Accumulates times into \p Record.
  void parallelFinalMark(CycleRecord &Record);

  /// Retires every thread's allocation cache and sweeps (eagerly in
  /// parallel, or arms lazy sweep per options). Fills the sweep/live
  /// fields of \p Record.
  void sweepWorld(CycleRecord &Record);

  /// One parallel drain step used by parallelFinalMark.
  void drainAllPackets();

  /// A complete collection cycle inside a single pause (the baseline
  /// collector's cycle; also the degenerate cycle the concurrent
  /// collector runs when an allocation fails before kickoff). Caller
  /// holds the collect lock.
  void runFullStwCycle(MutatorContext *Ctx);

  /// Feeds a finished cycle's record into the observability layer's
  /// pause histograms (total pause and its decomposition). No-op when
  /// Observe is off. Per-cycle gauges (K actual, floating garbage) are
  /// derived from the CycleRecord log by GcAggregates::compute.
  void recordCycleObservability(const CycleRecord &Record);

  GcCore &C;
};

} // namespace cgc

#endif // CGC_GC_COLLECTORBASE_H
