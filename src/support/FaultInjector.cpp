//===- FaultInjector.cpp - Deterministic fault injection ----------------------//

#include "support/FaultInjector.h"

#include <chrono>
#include <thread>

using namespace cgc;

const char *cgc::faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::PacketAcquireInput:
    return "packet-acquire-input";
  case FaultSite::PacketAcquireOutput:
    return "packet-acquire-output";
  case FaultSite::PacketAcquireEmpty:
    return "packet-acquire-empty";
  case FaultSite::PacketCas:
    return "packet-cas";
  case FaultSite::AllocCacheRefill:
    return "alloc-cache-refill";
  case FaultSite::AllocCacheFlush:
    return "alloc-cache-flush";
  case FaultSite::FreeListRefill:
    return "freelist-refill";
  case FaultSite::FreeListAllocate:
    return "freelist-allocate";
  case FaultSite::CardCleanBegin:
    return "card-clean-begin";
  case FaultSite::CardCleanStep:
    return "card-clean-step";
  case FaultSite::TracerStep:
    return "tracer-step";
  case FaultSite::WorkerDispatch:
    return "worker-dispatch";
  case FaultSite::CompactorTargetAlloc:
    return "compactor-target-alloc";
  case FaultSite::MutatorPollSkip:
    return "mutator-poll-skip";
  case FaultSite::IdleTransitionStall:
    return "idle-transition-stall";
  case FaultSite::MutatorDetach:
    return "mutator-detach";
  case FaultSite::NumSites:
    break;
  }
  return "unknown";
}

uint32_t FaultInjector::burstLength(FaultSite S) const {
  SpinLockGuard Guard(PlanLock);
  return Plan.Sites[static_cast<unsigned>(S)].BurstLength;
}

void FaultInjector::reconfigure(const FaultPlan &NewPlan) {
  {
    SpinLockGuard Guard(PlanLock);
    Plan = NewPlan;
  }
  // Publish the armed flag last so a racing fast-path that sees the flag
  // reads the new plan under the lock.
  Armed.store(NewPlan.Enabled, std::memory_order_release);
}

uint64_t FaultInjector::totalInjected() const {
  uint64_t Sum = 0;
  for (const auto &C : Injected)
    Sum += C.load(std::memory_order_relaxed);
  return Sum;
}

/// splitmix64 finalizer: a well-mixed pure function of its input.
static uint64_t mix64(uint64_t Z) {
  Z += 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Deterministic uniform draw in [0, 1) for visit \p N of site \p I.
static double drawUniform(uint64_t Seed, unsigned I, uint64_t N) {
  uint64_t H = mix64(Seed ^ mix64((static_cast<uint64_t>(I) + 1) *
                                  0xd6e8feb86659fd93ULL + N));
  return static_cast<double>(H >> 11) * (1.0 / 9007199254740992.0);
}

bool FaultInjector::shouldFailSlow(FaultSite S) {
  unsigned I = static_cast<unsigned>(S);
  uint64_t N = Visits[I].fetch_add(1, std::memory_order_relaxed) + 1;
  FaultSiteConfig Config;
  uint64_t Seed;
  {
    SpinLockGuard Guard(PlanLock);
    Config = Plan.Sites[I];
    Seed = Plan.Seed;
  }
  bool Hit = false;
  if (Config.EveryNth != 0 && N % Config.EveryNth == 0)
    Hit = true;
  else if (Config.Probability > 0.0 &&
           drawUniform(Seed, I, N) < Config.Probability)
    Hit = true;
  if (Hit)
    Injected[I].fetch_add(1, std::memory_order_relaxed);
  return Hit;
}

void FaultInjector::perturbSlow(FaultSite S) {
  unsigned I = static_cast<unsigned>(S);
  FaultSiteConfig Config;
  {
    SpinLockGuard Guard(PlanLock);
    Config = Plan.Sites[I];
  }
  if (Config.YieldCount == 0 && Config.StallMicros == 0)
    return;
  Perturbed[I].fetch_add(1, std::memory_order_relaxed);
  for (uint32_t Y = 0; Y < Config.YieldCount; ++Y)
    std::this_thread::yield();
  if (Config.StallMicros != 0)
    std::this_thread::sleep_for(
        std::chrono::microseconds(Config.StallMicros));
}
