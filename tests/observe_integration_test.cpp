//===- observe_integration_test.cpp - end-to-end observability tests ----------//
///
/// Drives a real collector with GcOptions::Observe on and asserts the
/// event stream is well-formed: timestamps merge in order, STW sections
/// never nest, incremental-trace quanta pair up per thread, the derived
/// K gauge is finite, and a generously sized ring drops nothing. The
/// derived gauges need no Observe: they come from the cycle records.
/// Also locks in the zero-cost contract: a deterministic workload run
/// with Observe off produces GcStats identical to the same run with
/// Observe on (instrumentation must never change collector behavior).
///
//===----------------------------------------------------------------------===//

#include "observe/Observe.h"
#include "runtime/GcHeap.h"
#include "workloads/GraphChurn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

using namespace cgc;

namespace {

GcOptions observedOptions() {
  GcOptions Opts;
  Opts.Kind = CollectorKind::MostlyConcurrent;
  Opts.HeapBytes = 10u << 20;
  Opts.BackgroundThreads = 1;
  Opts.GcWorkerThreads = 2;
  Opts.VerifyEachCycle = true;
  Opts.Observe = true;
  Opts.ObserveRingEvents = 1u << 18; // generous: nothing may drop
  return Opts;
}

struct StreamShape {
  std::map<uint32_t, int> IncDepthPerTid;
  int StwDepth = 0;
  int MaxStwDepth = 0;
  uint64_t NumEvents = 0;
  uint64_t NumKickoffs = 0;
  uint64_t NumCompletes = 0;
  uint64_t NumStwPairs = 0;
};

StreamShape checkStream(const std::vector<EventRecord> &Events) {
  StreamShape S;
  uint64_t PrevTime = 0;
  for (const EventRecord &E : Events) {
    ++S.NumEvents;
    EXPECT_GE(E.TimeNs, PrevTime) << "merge not timestamp-ordered";
    PrevTime = E.TimeNs;
    EXPECT_NE(E.ThreadId, 0u);
    EXPECT_LT(static_cast<uint16_t>(E.Kind),
              static_cast<uint16_t>(EventKind::NumKinds));

    switch (E.Kind) {
    case EventKind::IncTraceBegin:
      EXPECT_EQ(S.IncDepthPerTid[E.ThreadId], 0)
          << "nested inc-trace quantum on tid " << E.ThreadId;
      ++S.IncDepthPerTid[E.ThreadId];
      break;
    case EventKind::IncTraceEnd:
      EXPECT_EQ(S.IncDepthPerTid[E.ThreadId], 1)
          << "inc-trace end without begin on tid " << E.ThreadId;
      --S.IncDepthPerTid[E.ThreadId];
      break;
    case EventKind::StwBegin:
      EXPECT_EQ(S.StwDepth, 0) << "stop-the-world sections nested";
      ++S.StwDepth;
      S.MaxStwDepth = std::max(S.MaxStwDepth, S.StwDepth);
      break;
    case EventKind::StwEnd:
      EXPECT_EQ(S.StwDepth, 1) << "stw end without begin";
      --S.StwDepth;
      ++S.NumStwPairs;
      break;
    case EventKind::CycleKickoff:
      ++S.NumKickoffs;
      break;
    case EventKind::CycleComplete:
      ++S.NumCompletes;
      break;
    default:
      break;
    }
  }
  return S;
}

TEST(ObserveIntegrationTest, GraphChurnStreamIsWellFormed) {
#if !CGC_OBSERVE_COMPILED
  GTEST_SKIP() << "instrumentation compiled out (CGC_OBSERVE=OFF)";
#endif
  GcOptions Opts = observedOptions();
  auto Heap = GcHeap::create(Opts);

  GraphChurnConfig Config;
  Config.Threads = 3;
  Config.DurationMs = 400;
  GraphChurnWorkload Workload(*Heap, Config);
  WorkloadResult Result = Workload.run();
  EXPECT_FALSE(Result.IntegrityFailure);

  // Force at least one full cycle so the stream always has STW pairs.
  MutatorContext &Ctx = Heap->attachThread();
  Heap->requestGC(&Ctx);
  Heap->detachThread(Ctx);

  GcObserver &Obs = Heap->core().Obs;
  EXPECT_TRUE(Obs.enabled());
  std::vector<EventRecord> Events = Obs.drainAll();
  ASSERT_FALSE(Events.empty());
  EXPECT_EQ(Obs.droppedEvents(), 0u) << "generous ring must not drop";
  EXPECT_EQ(Obs.lostThreadEvents(), 0u);

  StreamShape S = checkStream(Events);
  // All sections closed by the time the world is quiet.
  EXPECT_EQ(S.StwDepth, 0);
  for (const auto &Entry : S.IncDepthPerTid)
    EXPECT_EQ(Entry.second, 0) << "unclosed quantum on tid " << Entry.first;
  EXPECT_EQ(S.MaxStwDepth, 1);
  EXPECT_GE(S.NumStwPairs, 1u);
  EXPECT_GE(S.NumCompletes, 1u);
  // Every completed cycle was announced (kickoffs only cover concurrent
  // cycles, completes cover both).
  EXPECT_LE(S.NumKickoffs, S.NumCompletes);

  // Pause histograms saw every completed cycle.
  const MetricsRegistry &M = Obs.metrics();
  uint64_t Cycles = Heap->stats().numCycles();
  EXPECT_EQ(M.histogram(PauseMetric::TotalPause).count(), Cycles);
  EXPECT_GT(M.histogram(PauseMetric::TotalPause).max(), 0u);

  // Per-cycle gauges, derived from the cycle records: finite K, and
  // floating garbage never exceeds what survived.
  std::vector<CycleRecord> Records = Heap->stats().snapshot();
  GcAggregates Agg = GcAggregates::compute(Records);
  EXPECT_TRUE(std::isfinite(Agg.KActualMean));
  EXPECT_GE(Agg.KActualMean, 0.0);
  EXPECT_GE(Agg.FloatingGarbageRatio, 0.0);
  EXPECT_LE(Agg.FloatingGarbageRatio * static_cast<double>(Opts.HeapBytes),
            Agg.AvgLiveBytesAfter);
  for (const CycleRecord &R : Records) {
    EXPECT_EQ(R.HeapBytes, Opts.HeapBytes);
    EXPECT_LE(R.LiveBytesAfter, R.HeapBytes);
  }

  // Once the run is quiescent every packet sits in some sub-pool.
  PacketPoolOccupancy Occ = Heap->core().Pool.occupancy();
  EXPECT_EQ(Occ.Empty + Occ.NonEmpty + Occ.AlmostFull + Occ.Deferred,
            Opts.NumWorkPackets);
}

TEST(ObserveIntegrationTest, ObserveOffProducesNoEventsOrRings) {
  GcOptions Opts = observedOptions();
  Opts.Observe = false;
  auto Heap = GcHeap::create(Opts);

  GraphChurnConfig Config;
  Config.Threads = 2;
  Config.DurationMs = 150;
  GraphChurnWorkload Workload(*Heap, Config);
  EXPECT_FALSE(Workload.run().IntegrityFailure);

  GcObserver &Obs = Heap->core().Obs;
  EXPECT_FALSE(Obs.enabled());
  EXPECT_EQ(Obs.ringCount(), 0u);
  EXPECT_TRUE(Obs.drainAll().empty());
  EXPECT_EQ(Obs.metrics().histogram(PauseMetric::TotalPause).count(), 0u);
}

TEST(ObserveIntegrationTest, DerivedGaugesWithoutObserve) {
  GcOptions Opts = observedOptions();
  Opts.Observe = false;
  auto Heap = GcHeap::create(Opts);

  GraphChurnConfig Config;
  Config.Threads = 2;
  Config.DurationMs = 200;
  // Churn until a concurrent cycle completes with allocation in its
  // concurrent window, where K is defined (slow sanitizer builds need
  // several rounds), bounded so a collector that never runs one fails.
  std::vector<CycleRecord> Records;
  auto AnyConcurrent = [&] {
    return std::any_of(Records.begin(), Records.end(),
                       [](const CycleRecord &R) {
                         return R.Concurrent && R.BytesAllocatedConcurrent;
                       });
  };
  for (int Round = 0; Round < 50 && !AnyConcurrent(); ++Round) {
    GraphChurnWorkload Workload(*Heap, Config);
    EXPECT_FALSE(Workload.run().IntegrityFailure);
    Records = Heap->stats().snapshot();
  }
  ASSERT_TRUE(AnyConcurrent())
      << "the churn must complete a concurrent cycle that allocated";
  GcAggregates Agg = GcAggregates::compute(Records);
  EXPECT_GT(Agg.KActualMean, 0.0);
  EXPECT_GE(Agg.FloatingGarbageRatio, 0.0);
  EXPECT_LE(Agg.FloatingGarbageRatio, 1.0);
}

/// A fixed, single-threaded allocation sequence whose GC behavior is
/// fully deterministic (STW collector, no background threads, no timing
/// dependence): the basis for the observe-on == observe-off comparison.
struct DeterministicStats {
  std::vector<CycleRecord> Cycles;
  uint64_t Escalations[static_cast<unsigned>(EscalationRung::NumRungs)] = {};
  bool AllocationFailed = false;
};

DeterministicStats runDeterministicWorkload(bool Observe) {
  GcOptions Opts;
  Opts.Kind = CollectorKind::StopTheWorld;
  Opts.HeapBytes = 4u << 20;
  Opts.GcWorkerThreads = 1;
  Opts.BackgroundThreads = 0;
  Opts.CycleWatchdog = false;
  Opts.VerifyEachCycle = true;
  Opts.Observe = Observe;

  auto Heap = GcHeap::create(Opts);
  MutatorContext &Ctx = Heap->attachThread();
  Ctx.reserveRoots(64);

  DeterministicStats Out;
  // Churn far past the heap size so several collections trigger purely
  // from allocation pressure; keep a rotating window live via roots.
  for (unsigned I = 0; I < 40000; ++I) {
    Object *Obj = Heap->allocate(Ctx, /*PayloadBytes=*/192, /*NumRefs=*/2);
    if (Obj == nullptr) {
      Out.AllocationFailed = true;
      break;
    }
    Ctx.setRoot(I % 64, Obj);
    if (I % 3 == 0)
      Heap->writeRef(Ctx, Obj, 0, Obj);
  }

  Out.Cycles = Heap->stats().snapshot();
  for (unsigned R = 0; R < static_cast<unsigned>(EscalationRung::NumRungs);
       ++R)
    Out.Escalations[R] =
        Heap->stats().escalationCount(static_cast<EscalationRung>(R));
  Heap->detachThread(Ctx);
  return Out;
}

TEST(ObserveIntegrationTest, ObserveDoesNotChangeCollectorBehavior) {
  DeterministicStats Off = runDeterministicWorkload(/*Observe=*/false);
  DeterministicStats On = runDeterministicWorkload(/*Observe=*/true);
  EXPECT_FALSE(Off.AllocationFailed);
  EXPECT_FALSE(On.AllocationFailed);

  // Identical cycle structure: same count and identical non-timing
  // fields cycle by cycle (timings differ run to run by nature).
  ASSERT_EQ(Off.Cycles.size(), On.Cycles.size());
  ASSERT_GE(Off.Cycles.size(), 2u) << "workload must trigger collections";
  for (size_t I = 0; I < Off.Cycles.size(); ++I) {
    EXPECT_EQ(Off.Cycles[I].CycleNumber, On.Cycles[I].CycleNumber);
    EXPECT_EQ(Off.Cycles[I].Concurrent, On.Cycles[I].Concurrent);
    EXPECT_EQ(Off.Cycles[I].LiveBytesAfter, On.Cycles[I].LiveBytesAfter);
    EXPECT_EQ(Off.Cycles[I].BytesTracedFinal, On.Cycles[I].BytesTracedFinal);
    EXPECT_EQ(Off.Cycles[I].HeapBytes, On.Cycles[I].HeapBytes);
  }
  for (unsigned R = 0; R < static_cast<unsigned>(EscalationRung::NumRungs);
       ++R)
    EXPECT_EQ(Off.Escalations[R], On.Escalations[R]) << "rung " << R;
}

} // namespace
