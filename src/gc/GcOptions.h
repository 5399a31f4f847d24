//===- GcOptions.h - Collector configuration --------------------*- C++ -*-===//
///
/// \file
/// All tunables of the collector, with defaults matching the paper's
/// measurement configuration (Section 6): tracing rate 8.0, 1000 work
/// packets of 493 entries, 4 low-priority background threads, one
/// concurrent card-cleaning pass, 512-byte cards.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_GC_GCOPTIONS_H
#define CGC_GC_GCOPTIONS_H

#include "support/FaultInjector.h"

#include <cstddef>
#include <cstdint>

namespace cgc {

/// Which collector the heap runs.
enum class CollectorKind {
  /// The baseline: parallel stop-the-world mark-sweep (the paper's STW).
  StopTheWorld,
  /// The paper's contribution: parallel, incremental, mostly concurrent
  /// mark-sweep (the paper's CGC).
  MostlyConcurrent
};

/// Collector configuration.
struct GcOptions {
  /// Managed heap size in bytes.
  size_t HeapBytes = 64ull << 20;

  /// Collector selection.
  CollectorKind Kind = CollectorKind::MostlyConcurrent;

  /// K0, the desired allocator tracing rate: bytes traced per byte
  /// allocated (Section 3.1; "typically 5 to 10", the paper measures
  /// with 8.0 by default).
  double TracingRate = 8.0;

  /// Kmax = KmaxFactor * K0, the clamp applied when the progress formula
  /// goes negative (Section 3.1, "typically 2 K0").
  double KmaxFactor = 2.0;

  /// The corrective term C applied when tracing falls behind schedule
  /// (Section 3.2: K + (K - K0) * C).
  double CorrectiveC = 2.0;

  /// Multiplier on the kickoff threshold (L + M) / K0: values above 1.0
  /// start concurrent cycles earlier, trading throughput (more cycles,
  /// more floating garbage) for request-latency headroom — with less of
  /// the heap outstanding when the final pause arrives, the pause is
  /// shorter and an open-loop latency SLO (perfbench's kv workload) is
  /// easier to hold. Values below 1.0 delay kickoff (throughput-biased).
  double KickoffHeadroom = 1.0;

  /// Alpha for the exponential smoothing of L, M and Best.
  double SmoothingAlpha = 0.5;

  /// Seeds for the first cycle's L and M predictions, as fractions of the
  /// heap size (no history exists yet).
  double SeedLFraction = 0.30;
  double SeedMFraction = 0.02;

  /// Number of work packets in the global pool.
  uint32_t NumWorkPackets = 1000;

  /// Low-priority background tracing threads (0 = pure incremental).
  unsigned BackgroundThreads = 4;

  /// Worker threads used for the parallel stop-the-world phases.
  unsigned GcWorkerThreads = 2;

  /// Concurrent card-cleaning passes (the paper uses 1 and notes in
  /// footnote 2 that a second pass further reduces pause time).
  unsigned ConcurrentCleaningPasses = 1;

  /// Number of address-partitioned free-list shards. 0 = auto
  /// (min(hardware_concurrency, 8), rounded down to a power of two and
  /// halved until every shard can span a whole allocation cache);
  /// 1 = the exact legacy single-list behavior (A/B baseline). Explicit
  /// values must be powers of two (asserted in GcHeap::create) and are
  /// subject to the same span clamp.
  unsigned FreeListShards = 0;

  /// Per-thread allocation cache (TLAB) size.
  size_t AllocCacheBytes = 32u << 10;

  /// Objects at least this big bypass the cache and are allocated
  /// directly from the free list.
  size_t LargeObjectBytes = 8u << 10;

  /// Defer the sweep out of the pause and perform it incrementally at
  /// allocation time (the paper's first future-work item, lazy sweep).
  bool LazySweep = false;

  /// Incremental compaction (Section 2.3): evacuate one area of this
  /// many bytes every CompactEveryNCycles cycles (0 disables). The
  /// area is chosen by fragmentation score over the sharded free
  /// list's per-window statistics. Composes with LazySweep: the pause
  /// sweeps just enough non-area chunks for target space, evacuates,
  /// and the rest of the sweep stays lazy (the armed area is excluded
  /// from the sweep generation — the evacuation rebuilds it).
  size_t EvacuationAreaBytes = 1u << 20;
  unsigned CompactEveryNCycles = 0;

  /// Run the reachability verifier inside every final pause (tests).
  bool VerifyEachCycle = false;

  /// Background thread tracing quantum in bytes.
  size_t BackgroundQuantumBytes = 64u << 10;

  /// Cycle watchdog: a low-priority thread that samples the concurrent
  /// phase and forces the STW finish when the tracer falls behind the
  /// pacer's progress formula or a background participant stalls.
  bool CycleWatchdog = true;

  /// Watchdog sample period (microseconds).
  unsigned WatchdogIntervalMicros = 2000;

  /// Consecutive no-progress samples (traced bytes, cleaned cards and
  /// deferrals all flat while a concurrent phase is active) that trip
  /// the watchdog's stall escalation.
  unsigned WatchdogStallTicks = 250;

  /// Consecutive samples with the progress formula pegged at Kmax while
  /// free memory sits below a quarter of the kickoff threshold — the
  /// tracer cannot catch up even at the clamp — that trip the watchdog's
  /// pacer-lag escalation.
  unsigned WatchdogLagTicks = 100;

  /// Cooperation-stall defense (DESIGN.md §13). Grace period before a
  /// stop-the-world wait starts attributing laggards (it keeps waiting —
  /// the world must actually stop — but reports the exact still-running
  /// contexts each elapsed grace period). 0 disables the deadline.
  unsigned StwGraceMicros = 500000;

  /// Grace period before a ragged fence handshake gives up and returns
  /// Timeout, failing the caller's pass (card-cleaning registrations
  /// recirculate; the watchdog counts the timeout toward the strike
  /// limit below). 0 disables the deadline.
  unsigned FenceGraceMicros = 500000;

  /// Fence-handshake timeouts within one concurrent cycle that make the
  /// watchdog abort the cycle to its STW finish (a non-cooperative
  /// mutator must not wedge the cycle forever; the stop-the-world
  /// safepoint needs no handshake acks and still completes once the
  /// thread polls or blocks). 0 disables the escalation.
  unsigned HandshakeStrikeLimit = 8;

  /// Install the signal-safe GC flight recorder: on SIGSEGV/SIGABRT (or
  /// a fatal assert) dump cycle phase, per-thread cooperation state,
  /// pacer/ladder counters and event-ring tails to FlightRecorderFd
  /// before re-raising. Off by default (tests and long soaks opt in).
  bool FlightRecorder = false;

  /// File descriptor the flight recorder writes to (2 = stderr).
  int FlightRecorderFd = 2;

  /// Fault-injection plan (chaos mode). Disabled by default: every
  /// injection site then costs one relaxed load behind a cold branch.
  FaultPlan Faults;

  /// Observability: record phase/packet/pause events into per-thread
  /// lock-free rings and aggregate pause histograms (src/observe/).
  /// Off by default; every instrumentation site then costs one
  /// predictable branch on a plain bool (or nothing at all when the
  /// tree is built with -DCGC_OBSERVE_COMPILED=0).
  bool Observe = false;

  /// Per-thread event-ring capacity in events (rounded up to a power
  /// of two). 16Ki events = 512 KiB per recording thread.
  uint32_t ObserveRingEvents = 1u << 14;

  /// Returns Kmax.
  double kmax() const { return KmaxFactor * TracingRate; }
};

} // namespace cgc

#endif // CGC_GC_GCOPTIONS_H
