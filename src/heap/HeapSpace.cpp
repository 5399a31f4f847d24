//===- HeapSpace.cpp - The managed heap region -------------------------------//

#include "heap/HeapSpace.h"

#include <cassert>
#include <cstdlib>

using namespace cgc;

// aligned_alloc requires the size to be a multiple of the alignment.
static size_t roundUpToPage(size_t Bytes) {
  return (Bytes + 4095) & ~size_t{4095};
}

HeapSpace::HeapSpace(size_t SizeBytes, unsigned FreeListShards,
                     FaultInjector *FI, size_t RefillThresholdBytes,
                     bool RouteRemoteFrees)
    : Base(static_cast<uint8_t *>(
          std::aligned_alloc(4096, roundUpToPage(SizeBytes)))),
      Size(roundUpToPage(SizeBytes)), MarkBitsV(Base, Size),
      AllocBitsV(Base, Size), CardsV(Base, Size),
      FreeListV(Base, Size, FreeListShards, FI, RefillThresholdBytes),
      RouteRemoteFreesV(RouteRemoteFrees) {
  assert(Base && "heap reservation failed");
  RemoteQueuesV.reserve(FreeListV.numShards());
  for (unsigned I = 0; I < FreeListV.numShards(); ++I)
    RemoteQueuesV.push_back(std::make_unique<RemoteFreeQueue>());
  FreeListV.addRange(Base, Size);
}

HeapSpace::~HeapSpace() { std::free(Base); }

void HeapSpace::releaseRanges(std::span<FreeRange> Ranges) {
  if (RouteRemoteFreesV) {
    // Push the routable runs and compact the rest to the front.
    size_t Kept = 0;
    for (const FreeRange &Range : Ranges) {
      auto [Start, Bytes] = Range;
      if (Bytes >= RemoteFreeQueue::MinChunkBytes &&
          Bytes < FreeList::BinThresholdBytes) {
        size_t Shard = FreeListV.shardIndexFor(Start);
        if (FreeListV.shardIndexFor(Start + Bytes - 1) == Shard) {
          RemoteQueuesV[Shard]->push(Start, Bytes);
          continue;
        }
      }
      Ranges[Kept++] = Range;
    }
    Ranges = Ranges.first(Kept);
  }
  FreeListV.addRanges(Ranges);
}

size_t HeapSpace::drainRemoteQueue(size_t Shard) {
  size_t Moved = 0;
  RemoteFreeChunk *Chunk = RemoteQueuesV[Shard]->takeAll();
  while (Chunk) {
    RemoteFreeChunk *Next = Chunk->Next;
    size_t ChunkSize = Chunk->SizeBytes;
    FreeListV.addRange(reinterpret_cast<uint8_t *>(Chunk), ChunkSize);
    Moved += ChunkSize;
    Chunk = Next;
  }
  return Moved;
}

size_t HeapSpace::drainAllRemoteQueues() {
  size_t Moved = 0;
  for (size_t I = 0; I < RemoteQueuesV.size(); ++I)
    Moved += drainRemoteQueue(I);
  return Moved;
}
