//===- StealingMarker.h - Traditional mark-stack load balancer --*- C++ -*-===//
///
/// \file
/// The "traditional" parallel STW load balancer the paper compares work
/// packets against (Section 4.4): each worker owns a private mark stack
/// and exposes part of its excess work in an attached stealable queue, in
/// the style of Endo et al and Flood et al. Used only by the
/// ablation_load_balancer comparison (and its unit test) — the collectors
/// themselves use work packets, so it lives with the benches, not in
/// src/gc.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_BENCH_STEALINGMARKER_H
#define CGC_BENCH_STEALINGMARKER_H

#include "heap/HeapSpace.h"
#include "support/SpinLock.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace cgc {

class WorkerPool;

/// Parallel STW marker with private stacks + stealing.
class StealingMarker {
public:
  /// Creates a marker for \p NumWorkers participants.
  StealingMarker(HeapSpace &Heap, unsigned NumWorkers);

  /// Seeds root objects (single-threaded, before markParallel).
  void addRoot(Object *Obj);

  /// Runs the parallel mark to completion on \p Workers (whose
  /// participant count must match NumWorkers). Returns bytes traced.
  uint64_t markParallel(WorkerPool &Workers);

  /// Number of successful steals (for the comparison report).
  uint64_t stealCount() const {
    return Steals.load(std::memory_order_relaxed);
  }
  /// Synchronization operations on the stealable queues.
  uint64_t syncOps() const {
    return SyncOps.load(std::memory_order_relaxed);
  }

private:
  struct WorkerState {
    /// Private mark stack: no synchronization.
    std::vector<Object *> Private;
    /// Excess work exposed for stealing, guarded by a lock.
    SpinLock QueueLock;
    std::vector<Object *> Stealable;
    /// Whether this worker is hunting for work (termination protocol).
    std::atomic<bool> Hungry{false};
    char Padding[64];
  };

  /// How much private work a worker keeps before exposing the excess.
  static constexpr size_t PrivateTarget = 512;
  static constexpr size_t ExposeBatch = 128;

  void workerMark(unsigned Index);
  bool stealFor(unsigned Index);
  void pushWork(WorkerState &W, Object *Obj);

  HeapSpace &Heap;
  std::vector<std::unique_ptr<WorkerState>> States;
  std::atomic<uint64_t> TracedBytes{0};
  std::atomic<uint64_t> Steals{0};
  std::atomic<uint64_t> SyncOps{0};
  std::atomic<unsigned> NumHungry{0};
};

} // namespace cgc

#endif // CGC_BENCH_STEALINGMARKER_H
