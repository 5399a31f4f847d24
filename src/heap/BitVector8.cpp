//===- BitVector8.cpp - One bit per 8-byte granule --------------------------//

#include "heap/BitVector8.h"

#include <bit>

using namespace cgc;

BitVector8::BitVector8(const void *BaseAddr, size_t SizeBytes)
    : Base(static_cast<const uint8_t *>(BaseAddr)),
      NumGranules(SizeBytes / GranuleBytes),
      NumWords((NumGranules + 63) / 64),
      Words(new std::atomic<uint64_t>[NumWords]) {
  assert(SizeBytes % GranuleBytes == 0 && "heap size not granular");
  clearAll();
}

void BitVector8::clearAll() {
  for (size_t I = 0; I < NumWords; ++I)
    Words[I].store(0, std::memory_order_relaxed);
}

void BitVector8::clearRange(const void *From, const void *To) {
  if (From >= To)
    return;
  size_t First = granuleIndex(From);
  // To is exclusive; the last granule cleared starts at To - GranuleBytes.
  size_t Last = granuleIndex(static_cast<const uint8_t *>(To) - GranuleBytes);
  size_t FirstWord = First >> 6, LastWord = Last >> 6;
  uint64_t HeadMask = ~0ull << (First & 63);
  uint64_t TailMask = ~0ull >> (63 - (Last & 63));
  if (FirstWord == LastWord) {
    Words[FirstWord].fetch_and(~(HeadMask & TailMask),
                               std::memory_order_relaxed);
    return;
  }
  Words[FirstWord].fetch_and(~HeadMask, std::memory_order_relaxed);
  for (size_t W = FirstWord + 1; W < LastWord; ++W)
    Words[W].store(0, std::memory_order_relaxed);
  Words[LastWord].fetch_and(~TailMask, std::memory_order_relaxed);
}

size_t BitVector8::countInRange(const void *From, const void *To) const {
  if (From >= To)
    return 0;
  size_t First = granuleIndex(From);
  size_t Last = granuleIndex(static_cast<const uint8_t *>(To) - GranuleBytes);
  size_t FirstWord = First >> 6, LastWord = Last >> 6;
  uint64_t HeadMask = ~0ull << (First & 63);
  uint64_t TailMask = ~0ull >> (63 - (Last & 63));
  uint64_t Bits = Words[FirstWord].load(std::memory_order_relaxed) & HeadMask;
  if (FirstWord == LastWord)
    return static_cast<size_t>(std::popcount(Bits & TailMask));
  size_t Count = static_cast<size_t>(std::popcount(Bits));
  for (size_t W = FirstWord + 1; W < LastWord; ++W)
    Count += static_cast<size_t>(
        std::popcount(Words[W].load(std::memory_order_relaxed)));
  return Count + static_cast<size_t>(std::popcount(
                     Words[LastWord].load(std::memory_order_relaxed) &
                     TailMask));
}

uint8_t *BitVector8::findPrevSet(const void *Before) const {
  const uint8_t *P = static_cast<const uint8_t *>(Before);
  if (P <= Base)
    return nullptr;
  size_t Last = granuleIndex(P - GranuleBytes);
  size_t Word = Last >> 6;
  uint64_t Bits = Words[Word].load(std::memory_order_relaxed);
  // Mask off bits above Last.
  unsigned Shift = static_cast<unsigned>(63 - (Last & 63));
  Bits = (Bits << Shift) >> Shift;
  for (;;) {
    if (Bits) {
      size_t Index = (Word << 6) + (63 - static_cast<size_t>(
                                             std::countl_zero(Bits)));
      return const_cast<uint8_t *>(Base) + Index * GranuleBytes;
    }
    if (Word == 0)
      return nullptr;
    --Word;
    Bits = Words[Word].load(std::memory_order_relaxed);
  }
}
