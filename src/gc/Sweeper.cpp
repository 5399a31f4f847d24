//===- Sweeper.cpp - Parallel bitwise sweep -----------------------------------//

#include "gc/Sweeper.h"

#include "gc/WorkerPool.h"
#include "observe/Observe.h"

#include <array>
#include <cassert>

using namespace cgc;

/// Free ranges smaller than this stay dark (their allocation bits are
/// still cleared, so they can never be resurrected by a conservative
/// scan); they are reclaimed once a neighbouring object dies.
static constexpr size_t MinFreeRangeBytes = 64;

/// How many live objects ahead of the mark-bit walk the header prefetch
/// runs: far enough to cover a cache miss, near enough that the lines
/// are still cached when the walk reads them.
static constexpr unsigned PrefetchDistance = 8;

Sweeper::Sweeper(HeapSpace &Heap, GcObserver *Obs)
    : Heap(Heap),
      NumChunks((Heap.sizeBytes() + ChunkBytes - 1) / ChunkBytes), Obs(Obs) {}

Sweeper::SweepResult Sweeper::sweepRange(HeapSpace &Heap, uint8_t *From,
                                         uint8_t *To, uint8_t *XLo,
                                         uint8_t *XHi) {
  SweepResult Result;
  const BitVector8 &Marks = Heap.markBits();
  // Leading edge: a live object spanning in across From keeps its extent
  // (the walk over the range before From accounted for it).
  uint8_t *Pos = From;
  if (uint8_t *PrevMarked = Marks.findPrevSet(From)) {
    uint8_t *PrevEnd = reinterpret_cast<Object *>(PrevMarked)->end();
    if (PrevEnd > Pos)
      Pos = PrevEnd;
  }
  if (Pos >= To)
    return Result;

  std::array<FreeRange, ReleaseBatchCap> Batch;
  size_t Batched = 0;
  auto flush = [&] {
    Heap.freeList().addRanges({Batch.data(), Batched});
    Batched = 0;
  };
  auto reclaimRaw = [&](uint8_t *RunFrom, uint8_t *RunTo) {
    if (RunFrom >= RunTo)
      return;
    Heap.allocBits().clearRange(RunFrom, RunTo);
    size_t Size = static_cast<size_t>(RunTo - RunFrom);
    if (Size >= MinFreeRangeBytes) {
      Batch[Batched++] = {RunFrom, Size};
      Result.FreedBytes += Size;
      if (Batched == Batch.size())
        flush();
    }
  };
  auto reclaim = [&](uint8_t *RunFrom, uint8_t *RunTo) {
    if (XLo < XHi && RunFrom < XHi && RunTo > XLo) {
      reclaimRaw(RunFrom, XLo < RunFrom ? RunFrom : XLo);
      reclaimRaw(XHi > RunTo ? RunTo : XHi, RunTo);
      return;
    }
    reclaimRaw(RunFrom, RunTo);
  };

  // Every set bit ahead of the walk is the header of a live object it
  // will visit (live objects do not overlap), so a second cursor over
  // the same words runs PrefetchDistance headers ahead and prefetches
  // them; the header read is then the walk's only per-object miss.
  size_t EndIndex = Marks.boundIndex(To);
  size_t Ahead = Marks.boundIndex(Pos);
  auto prefetchNext = [&] {
    Ahead = Marks.findNextSetIndex(Ahead, EndIndex);
    if (Ahead < EndIndex)
      __builtin_prefetch(Marks.granuleAddress(Ahead++));
  };
  for (unsigned I = 0; I < PrefetchDistance; ++I)
    prefetchNext();

  while (Pos < To) {
    size_t Next = Marks.findNextSetIndex(Marks.boundIndex(Pos), EndIndex);
    if (Next == EndIndex) {
      reclaim(Pos, To);
      break;
    }
    uint8_t *NextMarked = Marks.granuleAddress(Next);
    reclaim(Pos, NextMarked);
    prefetchNext();
    Object *Live = reinterpret_cast<Object *>(NextMarked);
    Result.LiveBytes += Live->sizeBytes();
    Pos = Live->end(); // May extend past To; the next range's
                       // leading-edge resolution accounts for it.
  }
  flush();
  return Result;
}

Sweeper::SweepResult Sweeper::sweepChunk(size_t Index) {
  uint8_t *ChunkStart = Heap.base() + Index * ChunkBytes;
  uint8_t *ChunkEnd = ChunkStart + ChunkBytes;
  if (ChunkEnd > Heap.limit())
    ChunkEnd = Heap.limit();
  // The compactor's armed area is excluded for the whole generation:
  // its bits and free ranges are rebuilt by the evacuation itself, and
  // re-inserting them here could hand out in-area evacuation targets or
  // double-add the rebuilt ranges (see setEvacuationExclusion).
  return sweepRange(Heap, ChunkStart, ChunkEnd,
                    ExclLo.load(std::memory_order_relaxed),
                    ExclHi.load(std::memory_order_relaxed));
}

uint64_t Sweeper::sweepAll(WorkerPool *Workers) {
  Heap.freeList().clear();
  Cursor.store(0, std::memory_order_relaxed);
  LiveBytesFound.store(0, std::memory_order_relaxed);
  LazyActive.store(false, std::memory_order_relaxed);

  auto SweepJob = [this](unsigned) {
    uint64_t Live = 0;
    for (;;) {
      size_t Index = Cursor.fetch_add(1, std::memory_order_relaxed);
      if (Index >= NumChunks)
        break;
      Live += sweepChunk(Index).LiveBytes;
    }
    LiveBytesFound.fetch_add(Live, std::memory_order_relaxed);
  };

  if (Workers)
    Workers->runParallel(SweepJob);
  else
    SweepJob(0);
  return LiveBytesFound.load(std::memory_order_relaxed);
}

void Sweeper::armLazySweep() {
  Heap.freeList().clear();
  Cursor.store(0, std::memory_order_relaxed);
  LiveBytesFound.store(0, std::memory_order_relaxed);
  LazyActive.store(true, std::memory_order_release);
}

uint64_t Sweeper::sweepUntilFree(size_t FreeBytesWanted) {
  if (!LazyActive.load(std::memory_order_acquire))
    return 0;
  ActiveSweepers.fetch_add(1, std::memory_order_acquire);
  uint64_t Freed = 0;
  uint64_t Live = 0;
  for (;;) {
    size_t Index = Cursor.fetch_add(1, std::memory_order_relaxed);
    if (Index >= NumChunks) {
      LazyActive.store(false, std::memory_order_release);
      break;
    }
    SweepResult R = sweepChunk(Index);
    Freed += R.FreedBytes;
    Live += R.LiveBytes;
    if (Freed >= FreeBytesWanted)
      break;
  }
  LiveBytesFound.fetch_add(Live, std::memory_order_relaxed);
  ActiveSweepers.fetch_sub(1, std::memory_order_release);
  if (Freed != 0)
    CGC_OBS_EVENT_P(Obs, SweepSlice, Freed, 1);
  return Freed;
}

void Sweeper::finishLazySweep() {
  while (LazyActive.load(std::memory_order_acquire))
    sweepUntilFree(SIZE_MAX);
  // A laggard sweeper may still be mid-chunk reading mark bits; the next
  // cycle must not clear them underneath it.
  while (ActiveSweepers.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
}
