//===- stealing_marker_test.cpp - traditional balancer ablation unit ----------//

#include "bench/StealingMarker.h"

#include "gc/WorkerPool.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <vector>

using namespace cgc;

namespace {

class StealingMarkerTest : public ::testing::Test {
protected:
  StealingMarkerTest() : Heap(8u << 20) { Heap.freeList().clear(); }

  /// Plants an allocated (unmarked) object.
  Object *plant(size_t Offset, uint16_t NumRefs) {
    Object *Obj = reinterpret_cast<Object *>(Heap.base() + Offset);
    Obj->initialize(
        static_cast<uint32_t>(Object::requiredSize(16, NumRefs)), NumRefs, 0);
    Heap.allocBits().set(Obj);
    return Obj;
  }

  HeapSpace Heap;
};

TEST_F(StealingMarkerTest, MarksLinkedList) {
  constexpr int Len = 1000;
  std::vector<Object *> Nodes;
  for (int I = 0; I < Len; ++I)
    Nodes.push_back(plant(static_cast<size_t>(I) * 64, 1));
  for (int I = 0; I + 1 < Len; ++I)
    Nodes[I]->storeRefRaw(0, Nodes[I + 1]);

  WorkerPool Workers(2);
  StealingMarker Marker(Heap, Workers.numParticipants());
  Marker.addRoot(Nodes[0]);
  uint64_t Traced = Marker.markParallel(Workers);
  EXPECT_EQ(Traced, static_cast<uint64_t>(Len) * Nodes[0]->sizeBytes());
  for (Object *N : Nodes)
    EXPECT_TRUE(Heap.markBits().test(N));
}

TEST_F(StealingMarkerTest, MarksRandomDag) {
  constexpr int NumNodes = 5000;
  Random Rng(7);
  std::vector<Object *> Nodes;
  for (int I = 0; I < NumNodes; ++I)
    Nodes.push_back(plant(static_cast<size_t>(I) * 64, 3));
  // Edges point backwards: acyclic, all reachable from the last node via
  // fan-in... instead root a prefix tree: each node points at up to 3
  // earlier nodes, and the LAST node alone cannot reach everything, so
  // root every node with no incoming edge. Simpler: root them all.
  for (int I = 1; I < NumNodes; ++I)
    for (unsigned E = 0; E < 3; ++E)
      Nodes[I]->storeRefRaw(E, Nodes[Rng.nextBelow(static_cast<uint64_t>(I))]);

  WorkerPool Workers(3);
  StealingMarker Marker(Heap, Workers.numParticipants());
  for (Object *N : Nodes)
    Marker.addRoot(N);
  Marker.markParallel(Workers);
  for (Object *N : Nodes)
    EXPECT_TRUE(Heap.markBits().test(N));
  EXPECT_GT(Marker.syncOps(), 0u);
}

TEST_F(StealingMarkerTest, SharedChildrenMarkedOnce) {
  Object *Root = plant(0, 2);
  Object *Shared = plant(64, 0);
  Root->storeRefRaw(0, Shared);
  Root->storeRefRaw(1, Shared);
  WorkerPool Workers(1);
  StealingMarker Marker(Heap, Workers.numParticipants());
  Marker.addRoot(Root);
  uint64_t Traced = Marker.markParallel(Workers);
  // Each object traced exactly once.
  EXPECT_EQ(Traced, Root->sizeBytes() + Shared->sizeBytes());
}

TEST_F(StealingMarkerTest, EmptyRootSetTerminates) {
  WorkerPool Workers(3);
  StealingMarker Marker(Heap, Workers.numParticipants());
  EXPECT_EQ(Marker.markParallel(Workers), 0u);
}

TEST_F(StealingMarkerTest, CyclesTerminate) {
  Object *A = plant(0, 1);
  Object *B = plant(64, 1);
  A->storeRefRaw(0, B);
  B->storeRefRaw(0, A);
  WorkerPool Workers(2);
  StealingMarker Marker(Heap, Workers.numParticipants());
  Marker.addRoot(A);
  EXPECT_EQ(Marker.markParallel(Workers), A->sizeBytes() + B->sizeBytes());
}

} // namespace
