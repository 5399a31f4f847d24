//===- BitVector8.h - One bit per 8-byte granule ----------------*- C++ -*-===//
///
/// \file
/// Bit vector mapping one bit to each 8-byte granule of the heap. Used
/// for both the mark bit vector and the allocation bit vector of the
/// paper (Section 2.1 and Section 5.2). Bit updates are atomic so that
/// many tracer and mutator threads can mark concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_BITVECTOR8_H
#define CGC_HEAP_BITVECTOR8_H

#include "heap/ObjectModel.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>

namespace cgc {

/// Atomic bitmap over a fixed heap range, one bit per granule.
class BitVector8 {
public:
  /// Creates a zeroed bitmap covering [Base, Base + SizeBytes).
  BitVector8(const void *Base, size_t SizeBytes);

  /// Atomically sets the bit for \p Addr; returns true if it was clear
  /// (i.e. this caller won the race). This is the mark operation.
  bool testAndSet(const void *Addr) {
    uint64_t Mask;
    std::atomic<uint64_t> &W = wordFor(Addr, Mask);
    if (W.load(std::memory_order_relaxed) & Mask)
      return false;
    return (W.fetch_or(Mask, std::memory_order_relaxed) & Mask) == 0;
  }

  /// Atomically sets the bit for \p Addr.
  void set(const void *Addr) {
    uint64_t Mask;
    wordFor(Addr, Mask).fetch_or(Mask, std::memory_order_relaxed);
  }

  /// Atomically sets the bit for \p Addr with release ordering: every
  /// store program-ordered before this call (an object's initializing
  /// writes) becomes visible to any thread that testAcquire()s the bit.
  /// This is the publication half of the Section 5.2 allocation-bit
  /// protocol. The batch fence in AllocationCache::flushAllocBits
  /// already provides this ordering on hardware; the release RMW costs
  /// nothing extra on TSO and, unlike a thread fence, is understood by
  /// ThreadSanitizer (GCC's TSan has no atomic_thread_fence support).
  void setRelease(const void *Addr) {
    uint64_t Mask;
    wordFor(Addr, Mask).fetch_or(Mask, std::memory_order_release);
  }

  /// Reads the bit for \p Addr (relaxed).
  bool test(const void *Addr) const {
    uint64_t Mask;
    return wordFor(Addr, Mask).load(std::memory_order_relaxed) & Mask;
  }

  /// Reads the bit for \p Addr with acquire ordering — the consumption
  /// half of the Section 5.2 protocol: a tracer that observes the bit
  /// set is guaranteed to see the object's initializing stores (pairs
  /// with setRelease; see that comment for why this exists alongside
  /// the tracer's batch fence).
  bool testAcquire(const void *Addr) const {
    uint64_t Mask;
    return wordFor(Addr, Mask).load(std::memory_order_acquire) & Mask;
  }

  /// Atomically clears the bit for \p Addr.
  void clear(const void *Addr) {
    uint64_t Mask;
    wordFor(Addr, Mask).fetch_and(~Mask, std::memory_order_relaxed);
  }

  /// Clears every bit covering [From, To). Boundary words are edited
  /// atomically so concurrent setters of neighbouring granules are safe.
  void clearRange(const void *From, const void *To);

  /// Zeroes the whole bitmap (not thread-safe against concurrent edits).
  void clearAll();

  /// Number of set bits covering [From, To) (relaxed snapshot).
  size_t countInRange(const void *From, const void *To) const;

  /// Address of the first set bit at or after \p From and before \p To,
  /// or nullptr when none.
  uint8_t *findNextSet(const void *From, const void *To) const {
    const uint8_t *FromP = static_cast<const uint8_t *>(From);
    const uint8_t *ToP = static_cast<const uint8_t *>(To);
    if (FromP >= ToP)
      return nullptr;
    size_t End = granuleIndex(ToP - GranuleBytes) + 1;
    size_t Index = findNextSetIndex(granuleIndex(FromP), End);
    return Index == End ? nullptr : granuleAddress(Index);
  }

  /// Granule index of the first set bit in [\p First, \p End), or \p End
  /// when none. Word at a time: the sweeper's mark-bit walk calls this
  /// once per live object, so it stays inline.
  size_t findNextSetIndex(size_t First, size_t End) const {
    assert(First <= End && "inverted granule range");
    assert(End <= NumGranules && "granule index above bitmap range");
    if (First >= End)
      return End;
    size_t Word = First >> 6;
    uint64_t Bits = Words[Word].load(std::memory_order_relaxed) &
                    (~0ull << (First & 63));
    for (;;) {
      if (Bits) {
        size_t Index =
            (Word << 6) + static_cast<size_t>(std::countr_zero(Bits));
        return Index < End ? Index : End;
      }
      if ((++Word << 6) >= End)
        return End;
      Bits = Words[Word].load(std::memory_order_relaxed);
    }
  }

  /// Granule index of \p Addr, which may also be one past the covered
  /// range (an exclusive bound).
  size_t boundIndex(const void *Addr) const {
    const uint8_t *P = static_cast<const uint8_t *>(Addr);
    assert(P >= Base && "address below bitmap range");
    size_t Offset = static_cast<size_t>(P - Base);
    assert(Offset / GranuleBytes <= NumGranules &&
           "address above bitmap range");
    assert(Offset % GranuleBytes == 0 && "address not granule aligned");
    return Offset / GranuleBytes;
  }

  /// Address of granule \p Index.
  uint8_t *granuleAddress(size_t Index) const {
    return const_cast<uint8_t *>(Base) + Index * GranuleBytes;
  }

  /// Address of the last set bit strictly before \p Before (and at or
  /// after the bitmap base), or nullptr when none. Used by the parallel
  /// sweeper to resolve objects spanning a chunk's leading edge.
  uint8_t *findPrevSet(const void *Before) const;

  /// Invokes \p Fn with the granule address of every set bit in
  /// [From, To), in address order. \p Fn returns false to stop early.
  template <typename FnT>
  void forEachSetInRange(const void *From, const void *To, FnT Fn) const {
    const uint8_t *Cur = static_cast<const uint8_t *>(From);
    const uint8_t *End = static_cast<const uint8_t *>(To);
    while (Cur < End) {
      uint8_t *Next = findNextSet(Cur, End);
      if (!Next)
        return;
      if (!Fn(Next))
        return;
      Cur = Next + GranuleBytes;
    }
  }

  /// The covered base address.
  const uint8_t *base() const { return Base; }

  /// Number of granules covered.
  size_t numGranules() const { return NumGranules; }

private:
  std::atomic<uint64_t> &wordFor(const void *Addr, uint64_t &Mask) {
    size_t Index = granuleIndex(Addr);
    Mask = 1ull << (Index & 63);
    return Words[Index >> 6];
  }
  const std::atomic<uint64_t> &wordFor(const void *Addr,
                                       uint64_t &Mask) const {
    return const_cast<BitVector8 *>(this)->wordFor(Addr, Mask);
  }

  size_t granuleIndex(const void *Addr) const {
    size_t Index = boundIndex(Addr);
    assert(Index < NumGranules && "address above bitmap range");
    return Index;
  }

  const uint8_t *Base;
  size_t NumGranules;
  size_t NumWords;
  std::unique_ptr<std::atomic<uint64_t>[]> Words;
};

} // namespace cgc

#endif // CGC_HEAP_BITVECTOR8_H
