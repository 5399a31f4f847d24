//===- Tracer.h - Parallel marking engine -----------------------*- C++ -*-===//
///
/// \file
/// The marking engine shared by every tracing participant (mutators
/// doing increments, background threads, STW workers).
///
/// markAndQueue sets the mark bit (atomic test-and-set) and queues the
/// object on the participant's output packet; a full pool triggers the
/// overflow treatment of Section 4.3 — the object stays marked and its
/// card is dirtied so card cleaning retraces it later.
///
/// traceWork consumes input packets with the allocation-bit safety
/// protocol of Section 5.2: the entries of an input packet are first
/// classified safe/unsafe by their allocation bits, ONE fence is issued,
/// then safe objects are scanned and unsafe ones are deferred to the
/// Deferred sub-pool (their header stores may not be visible yet).
///
//===----------------------------------------------------------------------===//

#ifndef CGC_GC_TRACER_H
#define CGC_GC_TRACER_H

#include "gc/Compactor.h"
#include "heap/HeapSpace.h"
#include "support/Atomics.h"
#include "support/FaultInjector.h"
#include "workpackets/TraceContext.h"

#include <atomic>
#include <cstdint>

namespace cgc {

class GcObserver;
class ThreadRegistry;

/// Parallel marker over a HeapSpace using a PacketPool.
class Tracer {
public:
  /// \p FI (optional) arms the tracer-step injection site: an injected
  /// hit ends a tracing increment early (under-filling its budget), the
  /// way a mutator outrunning the tracer looks to the pacer. \p Obs
  /// (optional) receives overflow events.
  Tracer(HeapSpace &Heap, PacketPool &Pool, ThreadRegistry &Registry,
         Compactor *Compact = nullptr, FaultInjector *FI = nullptr,
         GcObserver *Obs = nullptr)
      : Heap(Heap), Pool(Pool), Registry(Registry), Compact(Compact), FI(FI),
        Obs(Obs) {}

  /// Resets the per-cycle counters (call at cycle initialization).
  void beginCycle();

  /// Marks \p Obj if unmarked and queues it for scanning. Safe for any
  /// participant; \p Obj must be a real object start (callers validate
  /// conservative words first).
  void markAndQueue(TraceContext &Ctx, Object *Obj);

  /// Conservative root: treats \p Word as a reference only if it passes
  /// the heap's plausibility filter (range, alignment, allocation bit).
  void markConservativeWord(TraceContext &Ctx, uintptr_t Word) {
    if (Heap.isPlausibleObject(Word))
      markAndQueue(Ctx, reinterpret_cast<Object *>(Word));
  }

  /// Performs up to \p BudgetBytes of tracing using \p Ctx.
  ///
  /// \p CheckAllocBits enables the Section 5.2 deferral protocol (on
  /// during the concurrent phase; off during the final STW drain when
  /// every cache has been flushed).
  /// \p AbortOnStopRequest makes the loop return early when a
  /// stop-the-world has been requested (mutator increments must not
  /// delay the pause; STW workers pass false).
  /// Returns the number of object bytes scanned. The shared traced-bytes,
  /// traced-objects and deferred counters are added to once per input
  /// packet batch, and nothing is left unadded on return.
  size_t traceWork(TraceContext &Ctx, size_t BudgetBytes, bool CheckAllocBits,
                   bool AbortOnStopRequest);

  /// Total bytes traced since beginCycle (the progress formula's T).
  /// While tracing runs it lags by at most one batch per participant
  /// inside traceWork; once every call has returned it is exact.
  uint64_t cycleTracedBytes() const {
    return TracedBytes.load(std::memory_order_relaxed);
  }

  /// Objects scanned since beginCycle (auxiliary work credited through
  /// addTracedBytes counts no objects). Same lag as cycleTracedBytes.
  uint64_t cycleTracedObjects() const {
    return TracedObjects.load(std::memory_order_relaxed);
  }

  /// Adds externally performed tracing work to the cycle total.
  void addTracedBytes(uint64_t Bytes) {
    TracedBytes.fetch_add(Bytes, std::memory_order_relaxed);
  }

  uint64_t overflowCount() const {
    return Overflows.load(std::memory_order_relaxed);
  }
  uint64_t deferredCount() const {
    return Deferred.load(std::memory_order_relaxed);
  }

private:
  /// Scans one object's reference slots, marking and queueing children
  /// and recording every slot that points into [EvacLo, EvacHi).
  /// Returns the object's size in bytes (the unit of tracing work).
  size_t scanObject(TraceContext &Ctx, Object *Obj, const uint8_t *EvacLo,
                    const uint8_t *EvacHi);

  /// Overflow treatment (Section 4.3) for a marked object no packet
  /// could take: dirties its card so card cleaning retraces it.
  void overflow(Object *Obj);

  HeapSpace &Heap;
  PacketPool &Pool;
  ThreadRegistry &Registry;
  Compactor *Compact;
  FaultInjector *FI;
  GcObserver *Obs;

  // Every tracing thread adds to these once per batch; the pads keep the
  // counters off the lines of the read-mostly fields above and of
  // whatever follows the tracer.
  char ReadMostlyPad[CacheLineBytes];
  std::atomic<uint64_t> TracedBytes{0};
  std::atomic<uint64_t> TracedObjects{0};
  std::atomic<uint64_t> Overflows{0};
  std::atomic<uint64_t> Deferred{0};
  char TrailingPad[CacheLineBytes];
};

} // namespace cgc

#endif // CGC_GC_TRACER_H
