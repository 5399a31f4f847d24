//===- GcStats.cpp - Per-cycle collection statistics -------------------------//

#include "gc/GcStats.h"

#include "support/TablePrinter.h"

using namespace cgc;

const char *cgc::escalationRungName(EscalationRung Rung) {
  switch (Rung) {
  case EscalationRung::RefillRetry:
    return "refill-retry";
  case EscalationRung::SweepFinish:
    return "sweep-finish";
  case EscalationRung::StwFinish:
    return "stw-finish";
  case EscalationRung::FullStw:
    return "full-stw";
  case EscalationRung::AllocationFailure:
    return "allocation-failure";
  case EscalationRung::NumRungs:
    break;
  }
  return "unknown";
}

EscalationCounts GcStatsCollector::escalations() const {
  EscalationCounts Counts;
  for (unsigned I = 0; I < Counts.Rungs.size(); ++I)
    Counts.Rungs[I] = Escalations[I].load(std::memory_order_relaxed);
  Counts.WatchdogTrips = WatchdogTripsV.load(std::memory_order_relaxed);
  Counts.HandshakeAborts = HandshakeAbortsV.load(std::memory_order_relaxed);
  return Counts;
}

void GcStatsCollector::printEscalations(std::FILE *Out) const {
  EscalationCounts Counts = escalations();
  TablePrinter Table({"degradation rung", "count"});
  for (unsigned I = 0; I < Counts.Rungs.size(); ++I)
    Table.addRow({escalationRungName(static_cast<EscalationRung>(I)),
                  TablePrinter::num(Counts.Rungs[I])});
  Table.addRow({"watchdog-trips", TablePrinter::num(Counts.WatchdogTrips)});
  Table.addRow(
      {"handshake-aborts", TablePrinter::num(Counts.HandshakeAborts)});
  Table.print(Out);
}

GcAggregates GcAggregates::compute(const std::vector<CycleRecord> &Records) {
  GcAggregates A;
  A.NumCycles = Records.size();
  if (Records.empty())
    return A;
  size_t NumConcurrent = 0;
  uint64_t MinLiveAfter = UINT64_MAX;
  for (const CycleRecord &R : Records) {
    if (R.Concurrent) {
      ++NumConcurrent;
      if (R.BytesAllocatedConcurrent)
        A.KActualMean += static_cast<double>(R.BytesTracedConcurrent) /
                         static_cast<double>(R.BytesAllocatedConcurrent);
    }
    if (R.LiveBytesAfter < MinLiveAfter)
      MinLiveAfter = R.LiveBytesAfter;
    if (R.HeapBytes)
      A.FloatingGarbageRatio +=
          static_cast<double>(R.LiveBytesAfter - MinLiveAfter) /
          static_cast<double>(R.HeapBytes);
    double MarkMs = R.FinalCardCleanMs + R.StackRescanMs + R.FinalMarkMs;
    A.AvgPauseMs += R.PauseMs;
    A.AvgMarkMs += MarkMs;
    A.AvgSweepMs += R.SweepMs;
    A.AvgLiveBytesAfter += static_cast<double>(R.LiveBytesAfter);
    A.AvgCardsCleanedFinal += static_cast<double>(R.CardsCleanedFinal);
    A.AvgCardsCleanedConcurrent +=
        static_cast<double>(R.CardsCleanedConcurrent);
    if (R.PauseMs > A.MaxPauseMs)
      A.MaxPauseMs = R.PauseMs;
    if (MarkMs > A.MaxMarkMs)
      A.MaxMarkMs = MarkMs;
  }
  double N = static_cast<double>(Records.size());
  A.AvgPauseMs /= N;
  A.AvgMarkMs /= N;
  A.AvgSweepMs /= N;
  A.AvgLiveBytesAfter /= N;
  A.AvgCardsCleanedFinal /= N;
  A.AvgCardsCleanedConcurrent /= N;
  A.FloatingGarbageRatio /= N;
  if (NumConcurrent)
    A.KActualMean /= static_cast<double>(NumConcurrent);
  return A;
}
