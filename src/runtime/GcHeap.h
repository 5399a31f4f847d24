//===- GcHeap.h - Public heap runtime API -----------------------*- C++ -*-===//
///
/// \file
/// The library's public facade: a garbage-collected heap with per-thread
/// mutator contexts.
///
/// Typical use:
/// \code
///   GcOptions Opts;
///   Opts.HeapBytes = 64u << 20;
///   auto Heap = GcHeap::create(Opts);
///   MutatorContext &Ctx = Heap->attachThread();
///   Ctx.reserveRoots(8);
///   Object *Node = Heap->allocate(Ctx, /*PayloadBytes=*/32, /*NumRefs=*/2);
///   Ctx.setRoot(0, Node);                     // pin via simulated stack
///   Heap->writeRef(Ctx, Node, 0, Other);      // barriered ref store
///   Heap->detachThread(Ctx);
/// \endcode
///
/// Contract: every reference store into an object goes through
/// writeRef (the card-marking write barrier); object payloads are free
/// to be mutated directly. Each attached thread calls allocate /
/// safepointPoll regularly so the collector's handshakes make progress,
/// and brackets blocking/think periods with enterIdle / exitIdle.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_RUNTIME_GCHEAP_H
#define CGC_RUNTIME_GCHEAP_H

#include "gc/Collector.h"
#include "gc/GcCore.h"
#include "gc/HeapVerifier.h"
#include "support/Annotations.h"

#include <memory>
#include <vector>

namespace cgc {

/// A garbage-collected heap (one per process is typical, many are fine).
class GcHeap {
public:
  /// Creates a heap with \p Options (validated with asserts).
  static std::unique_ptr<GcHeap> create(const GcOptions &Options);

  ~GcHeap();

  GcHeap(const GcHeap &) = delete;
  GcHeap &operator=(const GcHeap &) = delete;

  /// --- Thread management ---------------------------------------------

  /// Attaches the calling thread; returns its mutator context. The
  /// context is only valid on the attaching thread.
  CGC_SAFEPOINT MutatorContext &attachThread();

  /// Detaches; \p Ctx must belong to the calling thread and must not be
  /// used afterwards.
  CGC_SAFEPOINT void detachThread(MutatorContext &Ctx);

  /// --- Allocation and mutation ----------------------------------------

  /// Allocates an object with \p PayloadBytes of raw data and
  /// \p NumRefs reference slots (all null). Returns nullptr only when
  /// the heap is exhausted after the whole degradation ladder (retry,
  /// sweep finish, STW finish, full collections) — never aborts.
  /// Performs the incremental tracing increment of Section 3 on cache
  /// refills.
  CGC_SAFEPOINT Object *allocate(MutatorContext &Ctx, size_t PayloadBytes,
                                 uint16_t NumRefs, uint16_t ClassId = 0);

  /// Reference store with the card-marking write barrier: store the
  /// slot, then dirty the holder's card — no fence (Section 5.3).
  ///
  /// This is the ONLY sanctioned way for mutator/runtime code to store
  /// a reference into a heap object after initialization. The barrier
  /// contract lives with the raw primitive it wraps — see
  /// Object::storeRefRaw in heap/ObjectModel.h for the full statement
  /// of when a raw (card-less) store is permissible. cgc-mole rule M2
  /// enforces that contract tree-wide.
  ///
  /// The barrier itself never safepoints: callers may hold raw Object*
  /// across it (the CGC_NO_SAFEPOINT below is verified by cgc-mole).
  CGC_NO_SAFEPOINT void writeRef(MutatorContext &Ctx, Object *Holder,
                                 unsigned Slot, Object *Value) {
    Holder->storeRefRaw(Slot, Value);
    if (BarrierEnabled)
      Core.Heap.cards().dirty(Holder);
  }

  /// Reference load (no read barrier in this collector).
  CGC_NO_SAFEPOINT static Object *readRef(const Object *Holder,
                                          unsigned Slot) {
    return Holder->loadRef(Slot);
  }

  /// --- Cooperation ----------------------------------------------------

  /// Safepoint/handshake poll; call inside long loops that don't
  /// allocate.
  CGC_SAFEPOINT void safepointPoll(MutatorContext &Ctx) {
    Core.Registry.poll(Ctx, Core.Heap.allocBits());
  }

  /// Brackets a no-heap-access region (think time, simulated IO); the
  /// thread counts as stopped inside.
  CGC_SAFEPOINT void enterIdle(MutatorContext &Ctx) {
    Core.Registry.enterIdle(Ctx);
  }
  CGC_SAFEPOINT void exitIdle(MutatorContext &Ctx) {
    Core.Registry.exitIdle(Ctx, Core.Heap.allocBits());
  }

  /// --- Control and introspection ---------------------------------------

  /// Forces a full collection (finishing any concurrent phase).
  CGC_SAFEPOINT void requestGC(MutatorContext *Ctx);

  /// Stops the world and runs the reachability verifier.
  CGC_SAFEPOINT VerifyResult verifyNow(MutatorContext *Ctx);

  /// Per-cycle statistics.
  GcStatsCollector &stats() { return Core.Stats; }

  /// Free bytes currently on the free list.
  size_t freeBytes() const { return Core.Heap.freeBytes(); }

  /// Number of completed collection cycles.
  uint64_t completedCycles() const {
    return Core.CompletedCycles.load(std::memory_order_acquire);
  }

  const GcOptions &options() const { return Core.Options; }

  /// Direct access to the machinery (tests and benches).
  GcCore &core() { return Core; }
  Collector &collector() { return *Col; }

private:
  explicit GcHeap(const GcOptions &Options);

  CGC_SAFEPOINT Object *allocateLarge(MutatorContext &Ctx, size_t TotalBytes,
                                      uint16_t NumRefs, uint16_t ClassId);
  CGC_SAFEPOINT bool refillCache(MutatorContext &Ctx, size_t MinBytes);

  /// The graceful-degradation ladder behind every allocation slow path.
  /// \p TryOnce attempts the allocation (returning success) and is
  /// retried after each escalation rung's remedy, in order:
  ///   1. RefillRetry  — plain retry (transient contention/injection).
  ///   2. SweepFinish  — finish enough of the pending lazy sweep.
  ///   3. StwFinish    — force the active concurrent cycle to its
  ///                     stop-the-world finish (skipped when no
  ///                     concurrent phase is active).
  ///   4. FullStw      — full stop-the-world collection (twice: the
  ///                     first collection may complete a cycle whose
  ///                     sweep frees little; the second starts fresh).
  ///   5. AllocationFailure — give up and report to the caller; the
  ///                     heap never aborts on exhaustion.
  /// Each rung is counted in GcStats when escalated INTO (even when its
  /// remedy is a no-op), so tests observe a deterministic order.
  template <typename TryFn>
  CGC_SAFEPOINT bool runAllocationLadder(MutatorContext &Ctx,
                                         size_t WantedBytes, TryFn TryOnce) {
    if (TryOnce())
      return true;
    noteRung(EscalationRung::RefillRetry, WantedBytes);
    if (TryOnce())
      return true;
    noteRung(EscalationRung::SweepFinish, WantedBytes);
    if (Core.Sweep.lazySweepPending())
      Core.Sweep.sweepUntilFree(WantedBytes);
    if (TryOnce())
      return true;
    if (Col->concurrentPhaseActive()) {
      noteRung(EscalationRung::StwFinish, WantedBytes);
      Col->collectNow(&Ctx);
      if (TryOnce())
        return true;
    }
    for (int I = 0; I < 2; ++I) {
      noteRung(EscalationRung::FullStw, WantedBytes);
      Col->collectNow(&Ctx);
      if (Core.Sweep.lazySweepPending())
        Core.Sweep.sweepUntilFree(WantedBytes);
      if (TryOnce())
        return true;
    }
    noteRung(EscalationRung::AllocationFailure, WantedBytes);
    return false;
  }

  /// Counts a ladder escalation in GcStats and mirrors it as an
  /// AllocLadderRung event.
  void noteRung(EscalationRung Rung, size_t WantedBytes) {
    Core.Stats.noteEscalation(Rung);
    CGC_OBS_EVENT(Core.Obs, AllocLadderRung, static_cast<unsigned>(Rung),
                  WantedBytes);
  }

  GcCore Core;
  std::unique_ptr<Collector> Col;
  const bool BarrierEnabled;
  /// Round-robin cursor for free-list shard affinity at attach.
  std::atomic<unsigned> NextShard{0};

  SpinLock ContextsLock;
  std::vector<std::unique_ptr<MutatorContext>> Contexts;
};

} // namespace cgc

#endif // CGC_RUNTIME_GCHEAP_H
