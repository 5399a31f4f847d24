//===- GcStats.h - Per-cycle collection statistics --------------*- C++ -*-===//
///
/// \file
/// Per-cycle measurement records and their aggregation. Every metric in
/// the paper's evaluation (Section 6) is computed from these records:
/// pause times and their mark/sweep decomposition, cards cleaned
/// concurrently vs in the pause, premature-completion free space, cards
/// left at allocation failure, per-cycle allocation rates, tracing
/// factors and their fairness, and synchronization costs.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_GC_GCSTATS_H
#define CGC_GC_GCSTATS_H

#include "support/SampleSeries.h"
#include "support/SpinLock.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <vector>

namespace cgc {

/// Rungs of the allocation-failure degradation ladder, in escalation
/// order (GcHeap::runAllocationLadder). The final stop-the-world finish
/// rung is also the cycle watchdog's escalation target.
enum class EscalationRung : unsigned {
  /// Rung 1: retry the refill (transient contention/injection).
  RefillRetry,
  /// Rung 2: finish the pending lazy sweep, then retry.
  SweepFinish,
  /// Rung 3: force the active concurrent cycle to its STW finish.
  StwFinish,
  /// Rung 4: run a full stop-the-world collection.
  FullStw,
  /// Rung 5: report AllocationFailure to the caller (never abort).
  AllocationFailure,
  NumRungs
};

/// Human-readable rung name.
const char *escalationRungName(EscalationRung Rung);

/// Snapshot of the escalation counters.
struct EscalationCounts {
  std::array<uint64_t, static_cast<unsigned>(EscalationRung::NumRungs)>
      Rungs{};
  uint64_t WatchdogTrips = 0;
  uint64_t HandshakeAborts = 0;

  uint64_t rung(EscalationRung R) const {
    return Rungs[static_cast<unsigned>(R)];
  }
};

/// Everything measured about one collection cycle.
struct CycleRecord {
  uint64_t CycleNumber = 0;
  /// True for a mostly-concurrent cycle, false for a pure STW cycle.
  bool Concurrent = false;
  /// True when concurrent tracing terminated before memory ran out.
  bool CompletedConcurrently = false;

  /// Total final stop-the-world pause, and its decomposition (ms).
  double PauseMs = 0;
  double StopMs = 0;
  double FinalCardCleanMs = 0;
  double StackRescanMs = 0;
  double FinalMarkMs = 0;
  double SweepMs = 0;

  /// Duration of the concurrent phase and of the preceding quiet period.
  double ConcurrentPhaseMs = 0;
  double PreConcurrentMs = 0;

  /// Card-cleaning work split.
  uint64_t CardsCleanedConcurrent = 0;
  uint64_t CardsCleanedFinal = 0;
  /// Cards the concurrent phase still had to clean when it was halted by
  /// an allocation failure ("Cards Left", Section 6.2).
  uint64_t CardsLeftAtFailure = 0;

  /// Free space remaining when concurrent tracing completed all its work
  /// ("Premature GC Free Space", Section 6.2). Zero if halted by failure.
  uint64_t FreeAtConcurrentCompletion = 0;

  /// Tracing volumes (bytes of objects scanned).
  uint64_t BytesTracedConcurrent = 0;
  uint64_t BytesTracedFinal = 0;
  uint64_t BytesTracedByBackground = 0;

  /// Allocation volumes in the two windows (bytes).
  uint64_t BytesAllocatedPreConcurrent = 0;
  uint64_t BytesAllocatedConcurrent = 0;

  /// Heap state after the sweep.
  uint64_t LiveBytesAfter = 0;
  uint64_t FreeBytesAfter = 0;
  uint64_t LargestFreeRangeAfter = 0;
  uint64_t HeapBytes = 0;

  /// Incremental compaction (when an area was evacuated this cycle).
  double CompactionMs = 0;
  uint64_t CompactionAreasScored = 0;
  uint64_t EvacuatedObjects = 0;
  uint64_t EvacuatedBytes = 0;
  uint64_t PinnedObjects = 0;
  uint64_t CompactionFailedMoves = 0;
  uint64_t CompactionSlotsFixed = 0;

  /// Weak-ordering / packet events.
  uint64_t DeferredObjects = 0;
  uint64_t Overflows = 0;
  uint64_t SyncOps = 0;

  /// Load-balancing quality of the cycle's tracing increments
  /// (Section 6.3): mean tracing factor and its standard deviation.
  double TracingFactorMean = 0;
  double TracingFactorStddev = 0;
  uint64_t TracingIncrements = 0;
};

/// Thread-safe container of cycle records.
class GcStatsCollector {
public:
  /// Appends a finished cycle's record.
  void addCycle(const CycleRecord &Record) {
    SpinLockGuard Guard(Lock);
    Cycles.push_back(Record);
  }

  /// Copies out all records.
  std::vector<CycleRecord> snapshot() const {
    SpinLockGuard Guard(Lock);
    return Cycles;
  }

  /// Number of completed cycles.
  size_t numCycles() const {
    SpinLockGuard Guard(Lock);
    return Cycles.size();
  }

  /// Clears all records and the escalation counters.
  void reset() {
    {
      SpinLockGuard Guard(Lock);
      Cycles.clear();
    }
    for (auto &C : Escalations)
      C.store(0, std::memory_order_relaxed);
    WatchdogTripsV.store(0, std::memory_order_relaxed);
    HandshakeAbortsV.store(0, std::memory_order_relaxed);
  }

  /// --- Degradation-ladder accounting ---------------------------------

  /// Records that the allocator escalated into \p Rung (counted on entry
  /// to the rung, whether or not the rung's remedy then succeeded).
  void noteEscalation(EscalationRung Rung) {
    Escalations[static_cast<unsigned>(Rung)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Records one watchdog-forced STW finish.
  void noteWatchdogTrip() {
    WatchdogTripsV.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one cycle aborted to STW-finish because fence handshakes
  /// kept timing out (the cooperation-stall strike escalation).
  void noteHandshakeAbort() {
    HandshakeAbortsV.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t escalationCount(EscalationRung Rung) const {
    return Escalations[static_cast<unsigned>(Rung)].load(
        std::memory_order_relaxed);
  }

  uint64_t watchdogTrips() const {
    return WatchdogTripsV.load(std::memory_order_relaxed);
  }

  uint64_t handshakeAborts() const {
    return HandshakeAbortsV.load(std::memory_order_relaxed);
  }

  /// Snapshot of all escalation counters.
  EscalationCounts escalations() const;

  /// Prints the degradation-ladder table (one row per rung that fired,
  /// plus the watchdog) to \p Out.
  void printEscalations(std::FILE *Out) const;

private:
  mutable SpinLock Lock;
  std::vector<CycleRecord> Cycles;
  std::array<std::atomic<uint64_t>,
             static_cast<unsigned>(EscalationRung::NumRungs)>
      Escalations{};
  std::atomic<uint64_t> WatchdogTripsV{0};
  std::atomic<uint64_t> HandshakeAbortsV{0};
};

/// Aggregates over a set of cycle records (helper for the benches).
struct GcAggregates {
  size_t NumCycles = 0;
  double AvgPauseMs = 0;
  double MaxPauseMs = 0;
  /// Mark component of the pause: final card cleaning + stack rescan +
  /// final marking.
  double AvgMarkMs = 0;
  double MaxMarkMs = 0;
  double AvgSweepMs = 0;
  double AvgLiveBytesAfter = 0;
  double AvgCardsCleanedFinal = 0;
  double AvgCardsCleanedConcurrent = 0;
  /// Table 1's achieved tracing rate K: the mean over concurrent cycles
  /// of bytes traced / bytes allocated in the concurrent window (a cycle
  /// that allocated nothing in its window counts as 0).
  double KActualMean = 0;
  /// Estimated floating garbage as a share of the heap, averaged over
  /// all cycles. A cycle's estimate is its live-after minus the lowest
  /// live-after seen so far (the running low-water mark): objects that
  /// died during tracing but were conservatively retained (Section
  /// 2.2). An approximation, since the true figure needs a precise
  /// baseline collection, but monotone in the quantity the paper
  /// discusses.
  double FloatingGarbageRatio = 0;

  /// Computes aggregates over \p Records (in cycle order).
  static GcAggregates compute(const std::vector<CycleRecord> &Records);
};

} // namespace cgc

#endif // CGC_GC_GCSTATS_H
