//===- FaultInjector.h - Deterministic fault injection ----------*- C++ -*-===//
///
/// \file
/// Deterministic fault injection for the collector's unhappy paths.
///
/// The paper sketches several degradation paths it never exercises
/// deliberately: packet-pool overflow (mark the object and dirty its
/// card, Section 4.3), allocation outrunning the tracer (Section 3.2's
/// corrective term), and falling back to stop-the-world completion
/// (Section 3). This subsystem makes those paths testable: named
/// injection sites are threaded through the hot paths, and each site can
/// be configured to fail seeded-probabilistically or on every Nth visit,
/// and/or to perturb scheduling (forced yields / stalls) so CAS windows
/// and fence protocols are stretched open under test.
///
/// Cost when disabled: every site fast-path is a single relaxed load of
/// the armed flag behind an unlikely branch (plus one pointer null check
/// where the injector is optional) — the acceptance bar is that benches
/// show no measurable regression with injection off.
///
/// Determinism: each site keeps a visit counter; the decision for the
/// Nth visit of a site is a pure function of (seed, site, N). Under a
/// fixed seed a single-threaded test sees an exactly reproducible fault
/// sequence; concurrent runs see a reproducible per-site sequence
/// modulo visit interleaving.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_SUPPORT_FAULTINJECTOR_H
#define CGC_SUPPORT_FAULTINJECTOR_H

#include "support/SpinLock.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

namespace cgc {

/// Named injection sites, one per unhappy path worth exercising.
enum class FaultSite : unsigned {
  /// PacketPool::getInput — simulated input-packet starvation.
  PacketAcquireInput,
  /// PacketPool::getOutput — simulated output-packet exhaustion (drives
  /// the Section 4.3 overflow treatment: mark + dirty card).
  PacketAcquireOutput,
  /// PacketPool::getEmpty — simulated Empty-pool exhaustion (drives the
  /// deferred-side overflow fallback).
  PacketAcquireEmpty,
  /// Perturb-only: stretch the CAS window of the packet sub-pool
  /// Treiber stacks (acquire and publish sides).
  PacketCas,
  /// GcHeap::refillCache — simulated transient allocation-cache refill
  /// failure (first rung of the degradation ladder).
  AllocCacheRefill,
  /// Perturb-only: between the allocation-cache flush fence and the
  /// batched allocation-bit publication (Section 5.2 mutator steps 2-3).
  AllocCacheFlush,
  /// ShardedFreeList::allocateUpTo — simulated transient free-list
  /// refill failure.
  FreeListRefill,
  /// ShardedFreeList::allocate — simulated transient large-allocation
  /// failure.
  FreeListAllocate,
  /// CardCleaner::tryBeginConcurrentPass — pass registration denied for
  /// this attempt (callers must retry or escalate).
  CardCleanBegin,
  /// CardCleaner::cleanSome (concurrent passes only) — cleaner yields
  /// its claim loop early.
  CardCleanStep,
  /// Tracer::traceWork — the tracing increment ends early, under-filling
  /// its budget (allocation outruns the tracer; the pacer falls behind).
  TracerStep,
  /// WorkerPool::runParallel — parallel dispatch degrades to serial
  /// execution on the calling thread (workers "unavailable").
  WorkerDispatch,
  /// Compactor::evacuate target selection — simulated allocation failure
  /// for one object's evacuation target (the object stays in the area
  /// and is counted as a failed move; compaction degrades gracefully
  /// instead of aborting).
  CompactorTargetAlloc,
  /// ThreadRegistry::poll — the mutator skips this cooperation point
  /// entirely (no handshake acknowledgement, no safepoint park). With
  /// BurstLength configured, one hit opens a per-thread burst: that
  /// mutator skips its next BurstLength visits too, simulating a thread
  /// wedged in a long syscall or native loop. Drives the timed-handshake
  /// stall defense.
  MutatorPollSkip,
  /// Perturb-only: stretch the mid-transition window of
  /// ThreadRegistry::enterIdle/exitIdle (the odd span of the context's
  /// TransitionSeq seqlock), so handshake initiators observe threads
  /// caught between execution states.
  IdleTransitionStall,
  /// Decision site consulted by chaos workloads: detach the mutator
  /// mid-cycle and reattach it, exercising registry membership churn
  /// against in-flight handshakes.
  MutatorDetach,
  NumSites
};

/// Human-readable site name.
const char *faultSiteName(FaultSite Site);

/// Per-site failure/perturbation configuration. All knobs default off.
struct FaultSiteConfig {
  /// Fail with this probability per visit (seeded draw), in [0, 1].
  double Probability = 0.0;
  /// Fail deterministically on every Nth visit (0 = off). Checked before
  /// the probabilistic draw; EveryNth == 1 fails every visit.
  uint64_t EveryNth = 0;
  /// Forced sched yields on every visit to the site.
  uint32_t YieldCount = 0;
  /// Forced stall (microseconds) on every visit to the site.
  uint32_t StallMicros = 0;
  /// Non-cooperation burst: when a failure decision hits, the affected
  /// actor keeps failing for this many further visits of its own (0 =
  /// single-shot). Consumed per-thread by the MutatorPollSkip site (the
  /// thread that drew the hit skips its next BurstLength polls).
  uint32_t BurstLength = 0;
};

/// A full injection plan: the GcOptions knob for chaos mode.
struct FaultPlan {
  static constexpr unsigned NumSites =
      static_cast<unsigned>(FaultSite::NumSites);

  /// Master switch; with Enabled == false every site is a cold no-op.
  bool Enabled = false;

  /// Seed for the per-site decision sequences.
  uint64_t Seed = 0x5eedfa17ULL;

  std::array<FaultSiteConfig, NumSites> Sites{};

  FaultSiteConfig &site(FaultSite S) {
    return Sites[static_cast<unsigned>(S)];
  }
  const FaultSiteConfig &site(FaultSite S) const {
    return Sites[static_cast<unsigned>(S)];
  }

  /// Chainable helpers so tests read declaratively.
  FaultPlan &failWithProbability(FaultSite S, double P) {
    site(S).Probability = P;
    Enabled = true;
    return *this;
  }
  FaultPlan &failEveryNth(FaultSite S, uint64_t N) {
    site(S).EveryNth = N;
    Enabled = true;
    return *this;
  }
  FaultPlan &perturb(FaultSite S, uint32_t Yields, uint32_t StallMicros = 0) {
    site(S).YieldCount = Yields;
    site(S).StallMicros = StallMicros;
    Enabled = true;
    return *this;
  }
  FaultPlan &burst(FaultSite S, uint32_t Length) {
    site(S).BurstLength = Length;
    return *this;
  }
};

/// Deterministic fault injector shared by one heap's subsystems.
///
/// Thread-safe: decisions use per-site atomic visit counters; the plan
/// itself is guarded by a spin lock taken only on the (cold) armed path,
/// so tests may reconfigure() between phases of a chaos run.
class FaultInjector {
public:
  static constexpr unsigned NumSites = FaultPlan::NumSites;

  /// Disarmed injector: every site is a no-op.
  FaultInjector() = default;

  explicit FaultInjector(const FaultPlan &Plan) { reconfigure(Plan); }

  FaultInjector(const FaultInjector &) = delete;
  FaultInjector &operator=(const FaultInjector &) = delete;

  /// Swaps in a new plan (arms or disarms). Visit/injection counters are
  /// preserved so a multi-phase chaos test keeps cumulative totals.
  void reconfigure(const FaultPlan &NewPlan);

  /// Restores the disarmed state.
  void disarm() { Armed.store(false, std::memory_order_relaxed); }

  bool enabled() const { return Armed.load(std::memory_order_relaxed); }

  /// Whether this visit to \p S should fail. The cold branch: disabled
  /// injectors answer with one relaxed load.
  bool shouldFail(FaultSite S) {
    if (__builtin_expect(!Armed.load(std::memory_order_relaxed), 1))
      return false;
    return shouldFailSlow(S);
  }

  /// Applies the configured yields/stall at \p S (scheduling chaos that
  /// never fails the operation).
  void maybePerturb(FaultSite S) {
    if (__builtin_expect(!Armed.load(std::memory_order_relaxed), 1))
      return;
    perturbSlow(S);
  }

  /// --- Introspection (tests, chaos reports) --------------------------

  /// Decisions drawn at \p S since construction.
  uint64_t visits(FaultSite S) const {
    return Visits[static_cast<unsigned>(S)].load(std::memory_order_relaxed);
  }
  /// Failures injected at \p S.
  uint64_t injected(FaultSite S) const {
    return Injected[static_cast<unsigned>(S)].load(std::memory_order_relaxed);
  }
  /// Perturbations (yield/stall visits) applied at \p S.
  uint64_t perturbed(FaultSite S) const {
    return Perturbed[static_cast<unsigned>(S)].load(
        std::memory_order_relaxed);
  }
  /// The configured burst length of \p S (cold; callers read it only
  /// after a hit, to size their per-actor non-cooperation window).
  uint32_t burstLength(FaultSite S) const;
  /// Total failures injected across all sites.
  uint64_t totalInjected() const;

private:
  bool shouldFailSlow(FaultSite S);
  void perturbSlow(FaultSite S);

  std::atomic<bool> Armed{false};
  mutable SpinLock PlanLock;
  FaultPlan Plan;

  std::array<std::atomic<uint64_t>, NumSites> Visits{};
  std::array<std::atomic<uint64_t>, NumSites> Injected{};
  std::array<std::atomic<uint64_t>, NumSites> Perturbed{};
};

} // namespace cgc

#endif // CGC_SUPPORT_FAULTINJECTOR_H
