//===- MetricsRegistry.cpp - Histogram math ------------------------------===//

#include "observe/MetricsRegistry.h"

#include <cmath>

using namespace cgc;

static uint32_t floorLog2(uint64_t V) {
  uint32_t L = 0;
  while (V >>= 1)
    ++L;
  return L;
}

uint32_t PauseHistogram::bucketFor(uint64_t Nanos) {
  if (Nanos < (1ull << BaseShift))
    return static_cast<uint32_t>(Nanos >> (BaseShift - 3)); // 128 ns linear
  uint32_t Octave = floorLog2(Nanos) - BaseShift;
  if (Octave >= MaxOctaves)
    return NumBuckets - 1; // overflow bucket
  uint32_t Sub =
      static_cast<uint32_t>((Nanos >> (BaseShift - 3 + Octave)) & (SubBuckets - 1));
  return SubBuckets + Octave * SubBuckets + Sub;
}

uint64_t PauseHistogram::bucketLowerBound(uint32_t Bucket) {
  if (Bucket < SubBuckets)
    return uint64_t(Bucket) << (BaseShift - 3);
  if (Bucket >= NumBuckets - 1) // overflow bucket
    return 1ull << (BaseShift + MaxOctaves);
  uint32_t Octave = Bucket / SubBuckets - 1;
  uint32_t Sub = Bucket % SubBuckets;
  return (1ull << (BaseShift + Octave)) +
         (uint64_t(Sub) << (BaseShift - 3 + Octave));
}

uint64_t PauseHistogram::quantile(double Q) const {
  uint64_t N = count();
  if (N == 0)
    return 0;
  if (Q >= 1.0)
    return max();
  if (Q < 0.0)
    Q = 0.0;
  // Rank of the requested sample, 1-based: ceil(Q * N), at least 1.
  uint64_t Rank = static_cast<uint64_t>(std::ceil(Q * static_cast<double>(N)));
  if (Rank < 1)
    Rank = 1;
  uint64_t Seen = 0;
  for (uint32_t B = 0; B < NumBuckets; ++B) {
    Seen += Counts[B].load(std::memory_order_relaxed);
    if (Seen >= Rank)
      return bucketLowerBound(B);
  }
  return max(); // racing record(); fall back to the extreme
}

double PauseHistogram::meanNanos() const {
  uint64_t N = count();
  if (N == 0)
    return 0.0;
  return static_cast<double>(totalNanos()) / static_cast<double>(N);
}

const char *cgc::pauseMetricName(PauseMetric Metric) {
  switch (Metric) {
  case PauseMetric::TotalPause:
    return "total_pause";
  case PauseMetric::FinalCardClean:
    return "final_card_clean";
  case PauseMetric::FinalMark:
    return "final_mark";
  case PauseMetric::Sweep:
    return "sweep";
  case PauseMetric::IncQuantum:
    return "inc_quantum";
  case PauseMetric::StwEntry:
    return "stw_entry";
  case PauseMetric::FenceHandshake:
    return "fence_handshake";
  case PauseMetric::RequestLatency:
    return "request_latency";
  case PauseMetric::RequestService:
    return "request_service";
  case PauseMetric::NumMetrics:
    break;
  }
  return "invalid";
}
