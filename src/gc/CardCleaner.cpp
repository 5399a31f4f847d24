//===- CardCleaner.cpp - Dirty-card registration and cleaning -----------------//

#include "gc/CardCleaner.h"

#include "mutator/ThreadRegistry.h"
#include "observe/Observe.h"
#include "support/Atomics.h"
#include "support/Fences.h"

#include <cassert>
#include <mutex>

using namespace cgc;

void CardCleaner::beginCycle(unsigned ConcurrentPasses) {
  SpinLockGuard Guard(RegistrarLock);
  Registered.clear();
  RegisteredCount.store(0, std::memory_order_relaxed);
  NextIndex.store(0, std::memory_order_relaxed);
  Cleaned.store(0, std::memory_order_relaxed);
  PassBudget.store(ConcurrentPasses, std::memory_order_relaxed);
  PassesStarted.store(0, std::memory_order_relaxed);
  FinalMode.store(false, std::memory_order_relaxed);
  PendingFence.store(false, std::memory_order_relaxed);
  CleanedConcurrent.store(0, std::memory_order_relaxed);
  CleanedFinal.store(0, std::memory_order_relaxed);
  TotalRegistered.store(0, std::memory_order_relaxed);
}

bool CardCleaner::tryBeginConcurrentPass(MutatorContext *Self) {
  if (FinalMode.load(std::memory_order_relaxed))
    return false;
  // Simulated registration denial: cards stay dirty, a later attempt (or
  // the final pass) picks them up. Callers already treat false as "no
  // pass now" and retry, so this never loses work.
  if (FI && FI->shouldFail(FaultSite::CardCleanBegin))
    return false;
  if (PassesStarted.load(std::memory_order_acquire) >=
      PassBudget.load(std::memory_order_relaxed))
    return false;
  // try_lock, never block: a spinning registrar-in-waiting would stall
  // the current registrar's fence handshake.
  if (!RegistrarLock.try_lock())
    return false;
  SpinLockGuard Guard(RegistrarLock, std::adopt_lock);
  if (FinalMode.load(std::memory_order_relaxed))
    return false;

  // A previous registration is waiting on a timed-out fence handshake:
  // retry just the handshake. Its cards are already cleared from the
  // table (they must not be re-registered) but unpublished — no cleaner
  // may scan them until the fence ordering is proven.
  if (PendingFence.load(std::memory_order_relaxed)) {
    // RegistrarLock only serializes would-be registrars, and they all
    // use try_lock (above) — a mutator acknowledging this handshake
    // never touches it, so the fence cannot deadlock against the held
    // lock. cgc-mole: allow(M3): try_lock-only registrar lock
    if (Registry.requestFenceHandshake(Self, Heap.allocBits()) !=
        CooperationResult::Ok)
      return false; // still pending; recirculate again
    PendingFence.store(false, std::memory_order_relaxed);
    RegisteredCount.store(Registered.size(), std::memory_order_release);
    PassesStarted.fetch_add(1, std::memory_order_release);
    CGC_OBS_EVENT_P(Obs, CardCleanPass, Registered.size(), 0);
    return true;
  }

  if (PassesStarted.load(std::memory_order_relaxed) >=
          PassBudget.load(std::memory_order_relaxed) ||
      !currentPassDrained())
    return false;

  // Step 1: register and clear dirty indicators.
  Registered.clear();
  Cleaned.store(0, std::memory_order_relaxed);
  NextIndex.store(0, std::memory_order_relaxed);
  RegisteredCount.store(0, std::memory_order_release);
  Heap.cards().registerAndClearDirty(Registered);
  TotalRegistered.fetch_add(Registered.size(), std::memory_order_relaxed);

  bool HaveWork = !Registered.empty();
  if (HaveWork) {
    // Step 2: force all mutators to execute a fence before any cleaner
    // scans the registered cards. A timeout keeps the registration
    // pending and the pass un-started (see the header).
    // cgc-mole: allow(M3): as above — only try_lock registrars contend
    if (Registry.requestFenceHandshake(Self, Heap.allocBits()) !=
        CooperationResult::Ok) {
      PendingFence.store(true, std::memory_order_relaxed);
      return false;
    }
    RegisteredCount.store(Registered.size(), std::memory_order_release);
  }
  PassesStarted.fetch_add(1, std::memory_order_release);
  CGC_OBS_EVENT_P(Obs, CardCleanPass, Registered.size(), 0);
  return HaveWork;
}

size_t CardCleaner::beginFinalPass() {
  SpinLockGuard Guard(RegistrarLock);
  // May be called repeatedly: overflows during the final drain re-dirty
  // cards, and the caller loops until none remain.
  FinalMode.store(true, std::memory_order_relaxed);

  // Cards registered by an interrupted concurrent pass were cleared from
  // the table but never cleaned — carry them over (world is stopped, so
  // no cleaner is mid-card). A pending-fence registration was never
  // published (RegisteredCount is still 0) but its cards are just as
  // cleared-and-uncleaned: carry the full vector.
  size_t Count = PendingFence.load(std::memory_order_relaxed)
                     ? Registered.size()
                     : RegisteredCount.load(std::memory_order_relaxed);
  PendingFence.store(false, std::memory_order_relaxed);
  size_t Claimed = NextIndex.load(std::memory_order_relaxed);
  if (Claimed > Count)
    Claimed = Count;
  std::vector<uint32_t> Leftover(Registered.begin() + Claimed,
                                 Registered.begin() + Count);

  Registered = std::move(Leftover);
  Cleaned.store(0, std::memory_order_relaxed);
  NextIndex.store(0, std::memory_order_relaxed);
  RegisteredCount.store(0, std::memory_order_release);
  Heap.cards().registerAndClearDirty(Registered);
  TotalRegistered.fetch_add(Registered.size(), std::memory_order_relaxed);
  // Mutators are parked (each fenced on its way in); the collector-side
  // fence completes the protocol.
  fence(FenceSite::CardTableHandshake);
  RegisteredCount.store(Registered.size(), std::memory_order_release);
  CGC_OBS_EVENT_P(Obs, CardCleanPass, Registered.size(), 1);
  return Registered.size();
}

size_t CardCleaner::cleanSome(TraceContext &Ctx, size_t MaxCards) {
  bool Final = FinalMode.load(std::memory_order_relaxed);
  // Concurrent passes only: the final pass loops until the card set is
  // drained, so an always-failing site here would loop forever.
  if (!Final && FI && FI->shouldFail(FaultSite::CardCleanStep))
    return 0; // Cleaner yields early; registered cards remain claimable.
  // One bounded CAS claims the whole run: NextIndex must never pass
  // RegisteredCount. An unconditional fetch_add would let cleaners
  // invoked while no pass is active (or during registration, while the
  // count is still zero) burn indices, permanently skipping cards whose
  // dirty flags the registration already cleared.
  size_t Count = RegisteredCount.load(std::memory_order_acquire);
  std::optional<std::pair<size_t, size_t>> Run =
      atomicClaimRangeBelow(NextIndex, Count, MaxCards);
  if (!Run)
    return 0;
  for (size_t I = Run->first; I < Run->second; ++I)
    cleanCard(Ctx, Registered[I]);
  // Counted once the whole run is cleaned, so currentPassDrained() (and
  // with it concurrentCleaningComplete()) never reports a card still
  // being cleaned.
  size_t Done = Run->second - Run->first;
  Cleaned.fetch_add(Done, std::memory_order_release);
  if (Final)
    CleanedFinal.fetch_add(Done, std::memory_order_relaxed);
  else
    CleanedConcurrent.fetch_add(Done, std::memory_order_relaxed);
  if (Done)
    CGC_OBS_EVENT_P(Obs, CardCleanSlice, Done, registeredNotCleaned());
  return Done;
}

void CardCleaner::cleanCard(TraceContext &Ctx, uint32_t Index) {
  uint8_t *Start = Heap.cards().cardStart(Index);
  uint8_t *End = Heap.cards().cardEnd(Index);
  // Step 3: retrace the marked objects on the card by pushing them back
  // onto the work packets (card cleaning "collects roots for further
  // tracing", Section 2.1).
  Heap.markBits().forEachSetInRange(Start, End, [&](uint8_t *Granule) {
    Object *Obj = reinterpret_cast<Object *>(Granule);
    if (Ctx.pushWork(Obj) == PushResult::Overflow) {
      // Packet pool exhausted: leave the object's card dirty so a later
      // pass (or the final one) retraces it.
      Heap.cards().dirty(Obj);
    }
    return true;
  });
}
