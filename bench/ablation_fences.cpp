//===- ablation_fences.cpp - Section 5's fence-batching claim ---------------------//
///
/// Section 5: a straightforward weak-ordering implementation needs a
/// fence per object allocation, per write barrier and per object traced;
/// the paper's design needs one per allocation-cache flush, one per
/// published packet, one per tracer batch, and a handful for card-table
/// handshakes. This harness runs the warehouse workload, reads the
/// batched design's fence counters, derives the naive scheme's counts
/// from the same run, and reports both per MB allocated — reproducing
/// the "significantly fewer fences" claim quantitatively.
///
/// The naive counts are derived here rather than counted on the hot
/// paths:
///   - per allocation and per write barrier: completed transactions
///     times the warehouse's per-transaction shape (one order, one line
///     array and LinesPerOrder lines allocated, LinesPerOrder + 1
///     reference stores, plus one more line and one more store with
///     OldMutationProbability, less the stores a rewire skips while the
///     thread's ring of retained trees is still filling);
///   - per object traced: each cycle's BytesTracedConcurrent +
///     BytesTracedFinal divided by the shape's mean object size.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/Fences.h"

using namespace cgc;
using namespace cgc::bench;

int main() {
  banner("Fence batching vs the naive per-operation scheme",
         "Section 5 (weak ordering issues)");

  GcOptions Cgc;
  Cgc.Kind = CollectorKind::MostlyConcurrent;
  Cgc.HeapBytes = 48u << 20;
  WarehouseConfig Config = warehouseFor(Cgc, 6, 2500, 0.6);

  // The warehouse's expected per-transaction shape (Warehouse.cpp).
  double Rewire = Config.OldMutationProbability;
  double AllocsPerTx = 2.0 + Config.LinesPerOrder + Rewire;
  double StoresPerTx = 1.0 + Config.LinesPerOrder + Rewire;
  double LineBytes =
      static_cast<double>(Object::requiredSize(Config.LinePayloadBytes, 1));
  double MeanObjectBytes =
      (static_cast<double>(Config.treeBytes()) + Rewire * LineBytes) /
      AllocsPerTx;
  std::printf("naive counts are derived, not counted:\n"
              "  per-object-alloc    = transactions x %.2f allocations\n"
              "  per-write-barrier   = transactions x %.2f reference stores,\n"
              "                        less rewires that find an empty ring "
              "slot\n"
              "  per-object-trace    = bytes traced per cycle / %.1f-byte "
              "mean object\n\n",
              AllocsPerTx, StoresPerTx, MeanObjectBytes);

  fenceCounters().reset();
  RunOutcome Run = runWarehouse(Cgc, Config);
  const FenceCounters &Counters = fenceCounters();

  double AllocMb =
      static_cast<double>(Run.Workload.BytesAllocated) / (1 << 20);
  double Tx = static_cast<double>(Run.Workload.Transactions);
  double TracedBytes = 0;
  for (const CycleRecord &R : Run.Cycles)
    TracedBytes +=
        static_cast<double>(R.BytesTracedConcurrent + R.BytesTracedFinal);
  // Until a thread's ring of retained trees fills, a rewire can pick an
  // empty slot and skip its store: at a thread's transaction I < Ring
  // the slot is empty with probability (Ring - 1 - I) / Ring.
  double Ring = static_cast<double>(Config.LiveTreesPerThread);
  double TxPerThread = Tx / Config.Threads;
  double Warm = TxPerThread < Ring ? TxPerThread : Ring;
  double SkippedStores = Config.Threads * Rewire *
                         (Warm * (Ring - 1) - Warm * (Warm - 1) / 2) / Ring;
  double NaiveAllocs = Tx * AllocsPerTx;
  double NaiveStores = Tx * StoresPerTx - SkippedStores;
  double NaiveTraces = TracedBytes / MeanObjectBytes;
  double NaiveTotal = NaiveAllocs + NaiveStores + NaiveTraces;
  double RealTotal = static_cast<double>(Counters.totalRealFences());

  TablePrinter Table({"fence site", "count", "per MB allocated"});
  auto row = [&](const char *Name, double Count) {
    Table.addRow({Name, TablePrinter::num(static_cast<uint64_t>(Count)),
                  TablePrinter::num(AllocMb > 0 ? Count / AllocMb : 0, 1)});
  };
  for (unsigned I = 0; I < FenceCounters::NumSites; ++I) {
    FenceSite Site = static_cast<FenceSite>(I);
    row(fenceSiteName(Site), static_cast<double>(Counters.count(Site)));
  }
  row("TOTAL (batched design)", RealTotal);
  row("naive-per-object-alloc (derived)", NaiveAllocs);
  row("naive-per-write-barrier (derived)", NaiveStores);
  row("naive-per-object-trace (derived)", NaiveTraces);
  row("TOTAL (naive design)", NaiveTotal);
  Table.print();

  double Ratio = RealTotal > 0 ? NaiveTotal / RealTotal : 0;
  std::printf("\nbatched design issues %.0fx fewer fences than the naive "
              "per-operation scheme on this run.\n", Ratio);
  return 0;
}
