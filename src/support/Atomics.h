//===- Atomics.h - Shared CAS-loop helpers ----------------------*- C++ -*-===//
///
/// \file
/// The one place in the tree allowed to spell a compare-exchange retry
/// loop. cgc-lint rule R3 bans hand-rolled `compare_exchange` loops
/// outside `support/`; callers express their update as a pure step
/// function and route it through one of these helpers instead. That keeps
/// every retry loop in the collector on the same, separately-reviewed
/// skeleton: explicit memory orders, `compare_exchange_weak` (spurious
/// failure tolerated), and a per-attempt hook for fault injection and
/// sync-op accounting.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_SUPPORT_ATOMICS_H
#define CGC_SUPPORT_ATOMICS_H

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>

namespace cgc {

/// Cache-line size assumed for false-sharing layout: atomics every
/// tracing thread writes are padded by it on both sides, so their lines
/// hold no read-mostly field another thread needs. (Padding rather than
/// alignas keeps the owning objects at ordinary alignment.)
inline constexpr std::size_t CacheLineBytes = 64;

/// Generic CAS retry loop. Each attempt calls \p OnAttempt (fault
/// injection, contention counters), then \p Step with the currently
/// observed value. \p Step returns the desired new value, or
/// `std::nullopt` to abort the loop (e.g. "stack is empty").
///
/// Returns the old value the successful exchange replaced, or
/// `std::nullopt` if \p Step aborted.
template <class T, class StepFn, class AttemptHook>
std::optional<T> atomicCasLoop(std::atomic<T> &Atom,
                               std::memory_order LoadOrder,
                               std::memory_order SuccessOrder,
                               std::memory_order FailureOrder, StepFn &&Step,
                               AttemptHook &&OnAttempt) {
  T Old = Atom.load(LoadOrder); // cgc-lint: allow(R1) caller-supplied order
  for (;;) {
    OnAttempt();
    std::optional<T> Desired = Step(Old);
    if (!Desired)
      return std::nullopt;
    // On failure compare_exchange reloads Old with FailureOrder.
    // cgc-lint: allow(R1) caller-supplied orders
    if (Atom.compare_exchange_weak(Old, *Desired, SuccessOrder, FailureOrder))
      return Old;
  }
}

/// atomicCasLoop without a per-attempt hook.
template <class T, class StepFn>
std::optional<T> atomicCasLoop(std::atomic<T> &Atom,
                               std::memory_order LoadOrder,
                               std::memory_order SuccessOrder,
                               std::memory_order FailureOrder, StepFn &&Step) {
  return atomicCasLoop(Atom, LoadOrder, SuccessOrder, FailureOrder,
                       std::forward<StepFn>(Step), [] {});
}

/// Monotonic maximum: raises \p Atom to \p Candidate unless a concurrent
/// writer already stored something at least as large (watermarks,
/// high-water statistics). Values may only grow through this helper.
template <class T>
void atomicStoreMax(std::atomic<T> &Atom, T Candidate,
                    std::memory_order Order = std::memory_order_relaxed) {
  T Current = Atom.load(Order); // cgc-lint: allow(R1) caller-supplied order
  while (Candidate > Current && // cgc-lint: allow(R1) caller-supplied order
         !Atom.compare_exchange_weak(Current, Candidate, Order, Order)) {
  }
}

/// Claims up to \p MaxCount consecutive tickets below \p Limit with one
/// successful exchange and returns them as [first, second), or
/// `std::nullopt` once the counter has reached \p Limit. The counter
/// never passes \p Limit. The bounded claim used by the card cleaner to
/// parcel out runs of registered cards to concurrent cleaners.
template <class T>
std::optional<std::pair<T, T>>
atomicClaimRangeBelow(std::atomic<T> &Next, T Limit, T MaxCount,
                      std::memory_order Order = std::memory_order_relaxed) {
  T Begin = Next.load(Order); // cgc-lint: allow(R1) caller-supplied order
  for (;;) {
    if (Begin >= Limit)
      return std::nullopt;
    T End = Limit - Begin > MaxCount ? Begin + MaxCount : Limit;
    // cgc-lint: allow(R1) caller-supplied order
    if (Next.compare_exchange_weak(Begin, End, Order, Order))
      return std::pair<T, T>(Begin, End);
  }
}

} // namespace cgc

#endif // CGC_SUPPORT_ATOMICS_H
