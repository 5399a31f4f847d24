//===- StealingMarker.cpp - Traditional mark-stack load balancer ---------------//

#include "bench/StealingMarker.h"

#include "gc/WorkerPool.h"

#include <cassert>
#include <mutex>
#include <thread>

using namespace cgc;

StealingMarker::StealingMarker(HeapSpace &Heap, unsigned NumWorkers)
    : Heap(Heap) {
  assert(NumWorkers > 0 && "need at least one marker");
  States.reserve(NumWorkers);
  for (unsigned I = 0; I < NumWorkers; ++I)
    States.push_back(std::make_unique<WorkerState>());
}

void StealingMarker::addRoot(Object *Obj) {
  if (!Heap.markBits().testAndSet(Obj))
    return;
  // Round-robin the roots over the workers' stealable queues.
  static_cast<void>(SyncOps.fetch_add(1, std::memory_order_relaxed));
  WorkerState &W = *States[Obj->sizeBytes() % States.size()];
  SpinLockGuard Guard(W.QueueLock);
  W.Stealable.push_back(Obj);
}

void StealingMarker::pushWork(WorkerState &W, Object *Obj) {
  if (W.Private.size() < PrivateTarget) {
    W.Private.push_back(Obj);
    return;
  }
  // Expose a batch of the excess for stealing (Endo-style shared queue).
  SpinLockGuard Guard(W.QueueLock);
  SyncOps.fetch_add(1, std::memory_order_relaxed);
  W.Stealable.push_back(Obj);
  for (size_t I = 0; I < ExposeBatch && W.Private.size() > PrivateTarget / 2;
       ++I) {
    W.Stealable.push_back(W.Private.back());
    W.Private.pop_back();
  }
}

bool StealingMarker::stealFor(unsigned Index) {
  WorkerState &Self = *States[Index];
  unsigned N = static_cast<unsigned>(States.size());
  for (unsigned Offset = 1; Offset <= N; ++Offset) {
    WorkerState &Victim = *States[(Index + Offset) % N];
    SpinLockGuard Guard(Victim.QueueLock);
    SyncOps.fetch_add(1, std::memory_order_relaxed);
    if (Victim.Stealable.empty())
      continue;
    // Take half the victim's exposed work.
    size_t Take = (Victim.Stealable.size() + 1) / 2;
    for (size_t I = 0; I < Take; ++I) {
      Self.Private.push_back(Victim.Stealable.back());
      Victim.Stealable.pop_back();
    }
    Steals.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void StealingMarker::workerMark(unsigned Index) {
  WorkerState &W = *States[Index];
  uint64_t Traced = 0;
  for (;;) {
    if (W.Private.empty()) {
      // Pull back own exposed work first, then steal.
      {
        SpinLockGuard Guard(W.QueueLock);
        SyncOps.fetch_add(1, std::memory_order_relaxed);
        while (!W.Stealable.empty()) {
          W.Private.push_back(W.Stealable.back());
          W.Stealable.pop_back();
        }
      }
      if (W.Private.empty() && !stealFor(Index)) {
        // Termination protocol: declare hunger; finish when everyone is
        // hungry and all queues are empty.
        W.Hungry.store(true, std::memory_order_release);
        NumHungry.fetch_add(1, std::memory_order_acq_rel);
        bool Done = false;
        while (W.Private.empty()) {
          if (NumHungry.load(std::memory_order_acquire) == States.size()) {
            bool AnyWork = false;
            for (auto &S : States) {
              SpinLockGuard Guard(S->QueueLock);
              if (!S->Stealable.empty())
                AnyWork = true;
            }
            if (!AnyWork) {
              Done = true;
              break;
            }
          }
          if (stealFor(Index))
            break;
          std::this_thread::yield();
        }
        if (Done)
          break; // Stay counted hungry: exited workers must keep the
                 // all-hungry condition satisfiable for the others.
        NumHungry.fetch_sub(1, std::memory_order_acq_rel);
        W.Hungry.store(false, std::memory_order_release);
        continue;
      }
    }
    Object *Obj = W.Private.back();
    W.Private.pop_back();
    for (unsigned I = 0, N = Obj->numRefs(); I < N; ++I) {
      Object *Child = Obj->loadRef(I);
      if (Child && Heap.markBits().testAndSet(Child))
        pushWork(W, Child);
    }
    Traced += Obj->sizeBytes();
  }
  TracedBytes.fetch_add(Traced, std::memory_order_relaxed);
}

uint64_t StealingMarker::markParallel(WorkerPool &Workers) {
  assert(Workers.numParticipants() == States.size() &&
         "worker count mismatch");
  TracedBytes.store(0, std::memory_order_relaxed);
  Workers.runParallel([this](unsigned Index) { workerMark(Index); });
  return TracedBytes.load(std::memory_order_relaxed);
}
