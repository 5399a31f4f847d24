//===- ablation_load_balancer.cpp - Section 4.4's comparison ----------------------//
///
/// Section 4.4 compares work-packet management with the traditional
/// parallel-STW load balancers (private mark stacks + stealing, in the
/// style of Endo et al / Flood et al). The paper argues packets give
/// fast access with minimal synchronization and natural termination
/// detection (and its conclusion proposes using packets for parallel
/// STW collectors too). This ablation marks the same large object graph
/// with both mechanisms and reports wall time and synchronization
/// operations.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include "bench/StealingMarker.h"
#include "gc/Tracer.h"
#include "gc/WorkerPool.h"
#include "support/Random.h"
#include "support/Timing.h"

using namespace cgc;
using namespace cgc::bench;

namespace {

/// Builds a random DAG of \p NumNodes objects directly in \p Heap.
std::vector<Object *> buildGraph(HeapSpace &Heap, size_t NumNodes,
                                 unsigned OutDegree, Random &Rng) {
  std::vector<Object *> Nodes;
  Nodes.reserve(NumNodes);
  size_t Bytes = Object::requiredSize(24, OutDegree);
  uint8_t *Cursor = Heap.base();
  for (size_t I = 0; I < NumNodes; ++I) {
    Object *Node = reinterpret_cast<Object *>(Cursor);
    Node->initialize(static_cast<uint32_t>(Bytes),
                     static_cast<uint16_t>(OutDegree), 0);
    Heap.allocBits().set(Node);
    Cursor += Bytes;
    Nodes.push_back(Node);
  }
  for (size_t I = 1; I < NumNodes; ++I)
    for (unsigned E = 0; E < OutDegree; ++E)
      Nodes[I]->storeRefRaw(E, Nodes[Rng.nextBelow(I)]);
  return Nodes;
}

} // namespace

int main() {
  banner("Work packets vs stealing mark stacks (parallel STW marking)",
         "Section 4.4 comparison; Section 7 proposes packets for "
         "parallel STW collection");

  constexpr size_t NumNodes = 400000;
  constexpr unsigned OutDegree = 3;
  constexpr unsigned RootFanout = 512;

  TablePrinter Table({"balancer", "workers", "mark ms", "sync ops",
                      "syncs/object"});

  for (unsigned Workers : {1u, 3u}) {
    // --- Work packets (the paper's mechanism) ---
    {
      HeapSpace Heap(64u << 20);
      Random Rng(42);
      std::vector<Object *> Nodes =
          buildGraph(Heap, NumNodes, OutDegree, Rng);
      PacketPool Pool(1000);
      ThreadRegistry Registry;
      Tracer Trace(Heap, Pool, Registry);
      WorkerPool Pool2(Workers);
      Trace.beginCycle();
      {
        TraceContext Seed(Pool);
        for (unsigned I = 0; I < RootFanout; ++I)
          Trace.markAndQueue(Seed,
                             Nodes[Nodes.size() - 1 - I % Nodes.size()]);
        Seed.release();
      }
      uint64_t SyncBefore = Pool.stats().SyncOps;
      Stopwatch Timer;
      Pool2.runParallel([&](unsigned) {
        TraceContext Ctx(Pool);
        for (;;) {
          if (Trace.traceWork(Ctx, 1u << 20, false, false) != 0)
            continue;
          Ctx.release();
          if (Pool.allPacketsEmptyAndIdle())
            return;
          std::this_thread::yield();
        }
      });
      double Ms = Timer.elapsedMillis();
      uint64_t Syncs = Pool.stats().SyncOps - SyncBefore;
      size_t Marked = Heap.markBits().countInRange(Heap.base(), Heap.limit());
      Table.addRow({"work packets",
                    TablePrinter::num(static_cast<uint64_t>(Workers + 1)),
                    TablePrinter::num(Ms, 1), TablePrinter::num(Syncs),
                    TablePrinter::num(
                        static_cast<double>(Syncs) /
                            static_cast<double>(Marked ? Marked : 1),
                        3)});
    }
    // --- Stealing mark stacks (the traditional mechanism) ---
    {
      HeapSpace Heap(64u << 20);
      Random Rng(42);
      std::vector<Object *> Nodes =
          buildGraph(Heap, NumNodes, OutDegree, Rng);
      WorkerPool Pool2(Workers);
      StealingMarker Marker(Heap, Pool2.numParticipants());
      for (unsigned I = 0; I < RootFanout; ++I)
        Marker.addRoot(Nodes[Nodes.size() - 1 - I % Nodes.size()]);
      Stopwatch Timer;
      Marker.markParallel(Pool2);
      double Ms = Timer.elapsedMillis();
      size_t Marked = Heap.markBits().countInRange(Heap.base(), Heap.limit());
      Table.addRow({"stealing stacks",
                    TablePrinter::num(static_cast<uint64_t>(Workers + 1)),
                    TablePrinter::num(Ms, 1),
                    TablePrinter::num(Marker.syncOps()),
                    TablePrinter::num(
                        static_cast<double>(Marker.syncOps()) /
                            static_cast<double>(Marked ? Marked : 1),
                        3)});
    }
  }
  Table.print();
  std::printf("\nexpected shape: comparable mark times; work packets keep "
              "synchronization per object low and need no separate "
              "termination protocol.\n");
  return 0;
}
