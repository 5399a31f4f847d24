//===- MutatorContext.h - Per-mutator-thread state --------------*- C++ -*-===//
///
/// \file
/// Per-thread mutator state: the allocation cache, the simulated thread
/// stack (a root array scanned conservatively), the work-packet trace
/// context used when the thread performs an increment of collection
/// work, safepoint/handshake state, and per-cycle pacing counters.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_MUTATOR_MUTATORCONTEXT_H
#define CGC_MUTATOR_MUTATORCONTEXT_H

#include "heap/AllocationCache.h"
#include "support/Annotations.h"
#include "support/SpinLock.h"
#include "workpackets/TraceContext.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace cgc {

class Object;

/// Execution state visible to the collector.
enum class ExecState : uint8_t {
  /// Executing mutator code; must poll to cooperate with the collector.
  Running,
  /// Parked at a safepoint, waiting for the world to resume.
  AtSafepoint,
  /// In an idle region (think time, blocking I/O simulation): performs
  /// no heap accesses and counts as stopped for safepoints/handshakes.
  Idle
};

/// All per-thread state the collector interacts with.
class MutatorContext {
public:
  explicit MutatorContext(PacketPool &Pool) : Trace(Pool) {}

  MutatorContext(const MutatorContext &) = delete;
  MutatorContext &operator=(const MutatorContext &) = delete;

  /// --- Simulated thread stack (conservative roots) -----------------

  /// Sizes the root array to \p N slots (all null).
  void reserveRoots(size_t N) {
    SpinLockGuard Guard(RootsLock);
    Roots.assign(N, 0);
  }

  /// Stores \p Value in root slot \p I. No write barrier: stacks are
  /// rescanned during the final stop-the-world phase, exactly as in the
  /// paper. Rooting primitives never safepoint — cgc-mole rule M1
  /// depends on that (an anchoring call must not itself be a hazard).
  CGC_NO_SAFEPOINT void setRoot(size_t I, Object *Value) {
    SpinLockGuard Guard(RootsLock);
    Roots[I] = reinterpret_cast<uintptr_t>(Value);
  }

  /// Reads root slot \p I.
  Object *getRoot(size_t I) const {
    SpinLockGuard Guard(RootsLock);
    return reinterpret_cast<Object *>(Roots[I]);
  }

  /// Number of root slots.
  size_t numRoots() const {
    SpinLockGuard Guard(RootsLock);
    return Roots.size();
  }

  /// Writes a raw (possibly non-reference) word into a root slot; used by
  /// tests to exercise the conservative filter.
  void setRootWord(size_t I, uintptr_t Word) {
    SpinLockGuard Guard(RootsLock);
    Roots[I] = Word;
  }

  /// Shadow-stack style roots appended after the fixed slots: anchors
  /// objects under construction (e.g. a parser's partial ASTs) exactly
  /// like values on a real thread stack would.
  CGC_NO_SAFEPOINT void pushRoot(Object *Value) {
    SpinLockGuard Guard(RootsLock);
    Roots.push_back(reinterpret_cast<uintptr_t>(Value));
  }

  /// Pops the \p N most recently pushed shadow-stack roots.
  CGC_NO_SAFEPOINT void popRoots(size_t N) {
    SpinLockGuard Guard(RootsLock);
    assert(Roots.size() >= N && "popping more roots than pushed");
    Roots.resize(Roots.size() - N);
  }

  /// Runs \p Fn over a snapshot of the root words while holding the root
  /// lock (so a concurrent scanner sees a consistent vector).
  template <typename FnT> void withRoots(FnT Fn) const {
    SpinLockGuard Guard(RootsLock);
    Fn(Roots);
  }

  /// --- Collector-visible state --------------------------------------

  AllocationCache &cache() { return Cache; }
  TraceContext &trace() { return Trace; }

  /// Free-list shard this thread refills from first (assigned
  /// round-robin at attach); other shards are stolen from only when it
  /// is exhausted, so refills of different threads rarely share a lock.
  unsigned preferredShard() const { return PreferredShardV; }
  void setPreferredShard(unsigned Shard) { PreferredShardV = Shard; }

  ExecState state() const {
    return static_cast<ExecState>(State.load(std::memory_order_acquire));
  }
  void setState(ExecState S) {
    State.store(static_cast<uint8_t>(S), std::memory_order_release);
  }

  /// Small registry-assigned id used in stall reports and the flight
  /// recorder (stable for the context's lifetime; contexts are reported
  /// by id, never by pointer, so a report outlives a detached thread).
  uint32_t debugId() const { return DebugIdV; }
  void setDebugId(uint32_t Id) { DebugIdV = Id; }

  /// Handshake epoch this thread has acknowledged.
  CGC_ATOMIC_DOC("owner stores release at poll; registrar acquire-scans")
  std::atomic<uint64_t> HandshakeAck{0};

  /// Collection cycle number whose stack scan this thread has completed
  /// (0 = never). Claimed with compare-exchange by whichever participant
  /// performs the scan.
  CGC_ATOMIC_DOC("claimed by acq_rel CAS from owner or background scanner")
  std::atomic<uint64_t> StackScanCycle{0};

  /// Bytes of allocation performed (monotonic). Only the owner writes,
  /// so it adds with a relaxed load plus store, not a locked RMW.
  CGC_ATOMIC_DOC("owner load+store relaxed; reporting reads racily")
  std::atomic<uint64_t> BytesAllocated{0};

  /// Number of transactions/operations completed; maintained by
  /// workloads for throughput reporting.
  CGC_ATOMIC_DOC("owner adds relaxed; reporting reads racily")
  std::atomic<uint64_t> OpsCompleted{0};

  /// --- Cooperation-stall defense state -------------------------------

  /// nowNanos() of this thread's most recent cooperation point (poll
  /// acknowledgement, park, idle transition; polls stamp on a stride to
  /// keep the allocation fast path clock-free). The timed handshake
  /// initiators read it to compute a laggard's poll age.
  CGC_ATOMIC_DOC("owner stores relaxed; stall reporters read racily")
  std::atomic<uint64_t> LastPollNanos{0};

  /// Execution-state transition seqlock: odd while the owner is inside
  /// an enterIdle/exitIdle/park state transition, even when stable. A
  /// handshake initiator counts a non-Running thread as quiescent only
  /// when it reads an even, unchanged sequence around the state read —
  /// the state transition (and its fence) provably completed. A thread
  /// stalled mid-transition is treated as a laggard, never silently
  /// quiescent.
  CGC_ATOMIC_DOC("owner acq_rel increments; initiators acquire-read pairs")
  std::atomic<uint64_t> TransitionSeq{0};

  /// Owner-only poll bookkeeping (no atomicity needed): stride counter
  /// for LastPollNanos stamping, and the remaining length of an active
  /// fault-injected non-cooperation burst (FaultSite::MutatorPollSkip).
  uint32_t PollStride = 0;
  uint32_t SkipPollsRemaining = 0;

private:
  AllocationCache Cache;
  TraceContext Trace;
  unsigned PreferredShardV = 0;
  uint32_t DebugIdV = 0;
  mutable SpinLock RootsLock;
  std::vector<uintptr_t> Roots CGC_GUARDED_BY(RootsLock);
  CGC_ATOMIC_DOC("owner stores release; collector acquire-reads at stops")
  std::atomic<uint8_t> State{static_cast<uint8_t>(ExecState::Running)};
};

} // namespace cgc

#endif // CGC_MUTATOR_MUTATORCONTEXT_H
