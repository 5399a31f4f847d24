//===- histogram_test.cpp - PauseHistogram and derived-gauge unit tests -------//
///
/// Locks in the HDR-lite histogram contract: bucketFor/bucketLowerBound
/// are exact inverses at every bucket boundary, quantiles match a
/// reference sort to within one sub-bucket (12.5% relative error),
/// quantile(1.0) is the exact maximum. Also checks the per-cycle gauges
/// GcAggregates derives from CycleRecords: K actual over concurrent
/// cycles, and floating garbage from the live-after low-water mark.
///
//===----------------------------------------------------------------------===//

#include "gc/GcStats.h"
#include "observe/MetricsRegistry.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

using namespace cgc;

namespace {

TEST(PauseHistogramTest, BucketForAndLowerBoundAreInverses) {
  for (uint32_t B = 0; B < PauseHistogram::NumBuckets; ++B) {
    uint64_t Lb = PauseHistogram::bucketLowerBound(B);
    EXPECT_EQ(PauseHistogram::bucketFor(Lb), B) << "bucket " << B;
    // One below the lower bound falls in an earlier bucket.
    if (B > 0)
      EXPECT_LT(PauseHistogram::bucketFor(Lb - 1), B) << "bucket " << B;
  }
}

TEST(PauseHistogramTest, LowerBoundsAreStrictlyIncreasing) {
  for (uint32_t B = 1; B < PauseHistogram::NumBuckets; ++B)
    EXPECT_GT(PauseHistogram::bucketLowerBound(B),
              PauseHistogram::bucketLowerBound(B - 1));
}

TEST(PauseHistogramTest, LinearAndOctaveBoundaries) {
  // 8 linear 128 ns buckets below 1024 ns.
  EXPECT_EQ(PauseHistogram::bucketFor(0), 0u);
  EXPECT_EQ(PauseHistogram::bucketFor(127), 0u);
  EXPECT_EQ(PauseHistogram::bucketFor(128), 1u);
  EXPECT_EQ(PauseHistogram::bucketFor(1023), 7u);
  // First octave starts at 1024 with 128 ns sub-buckets.
  EXPECT_EQ(PauseHistogram::bucketFor(1024), 8u);
  EXPECT_EQ(PauseHistogram::bucketFor(1151), 8u);
  EXPECT_EQ(PauseHistogram::bucketFor(1152), 9u);
  EXPECT_EQ(PauseHistogram::bucketFor(2047), 15u);
  EXPECT_EQ(PauseHistogram::bucketFor(2048), 16u);
  // Values past the last octave land in the overflow bucket.
  EXPECT_EQ(PauseHistogram::bucketFor(UINT64_MAX),
            PauseHistogram::NumBuckets - 1);
}

TEST(PauseHistogramTest, EmptyHistogramReportsZeros) {
  PauseHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.totalNanos(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.quantile(0.5), 0u);
  EXPECT_EQ(H.meanNanos(), 0.0);
}

TEST(PauseHistogramTest, MaxAndMeanAreExact) {
  PauseHistogram H;
  H.record(100);
  H.record(1000000);
  H.record(3);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.totalNanos(), 1000103u);
  EXPECT_EQ(H.max(), 1000000u);
  EXPECT_EQ(H.quantile(1.0), 1000000u); // exact, not bucket-rounded
  EXPECT_DOUBLE_EQ(H.meanNanos(), 1000103.0 / 3.0);
}

TEST(PauseHistogramTest, QuantilesMatchReferenceSort) {
  uint64_t Seed = testSeed(0x4157, "histogram_quantiles");
  std::mt19937_64 Rng(Seed);
  // Log-uniform samples spanning the linear region through several
  // octaves (1 ns .. ~16 s).
  std::uniform_real_distribution<double> LogDist(0.0, 34.0);
  PauseHistogram H;
  std::vector<uint64_t> Reference;
  for (int I = 0; I < 20000; ++I) {
    uint64_t Sample = static_cast<uint64_t>(std::exp2(LogDist(Rng)));
    H.record(Sample);
    Reference.push_back(Sample);
  }
  std::sort(Reference.begin(), Reference.end());

  for (double Q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    uint64_t Rank = static_cast<uint64_t>(
        std::ceil(Q * static_cast<double>(Reference.size())));
    if (Rank < 1)
      Rank = 1;
    uint64_t Exact = Reference[Rank - 1];
    uint64_t Reported = H.quantile(Q);
    // Bucket-equality contract: the reported value is the lower bound of
    // the exact sample's bucket.
    EXPECT_EQ(PauseHistogram::bucketFor(Reported),
              PauseHistogram::bucketFor(Exact))
        << "q=" << Q;
    EXPECT_LE(Reported, Exact);
    // One sub-bucket of error: the lower bound is within 12.5% + the
    // linear-region granularity of the exact value.
    double Error = static_cast<double>(Exact - Reported);
    EXPECT_LE(Error, 0.125 * static_cast<double>(Exact) + 128.0) << "q=" << Q;
  }
}

TEST(PauseHistogramTest, QuantileDegenerateInputs) {
  PauseHistogram H;
  H.record(5000);
  EXPECT_EQ(H.quantile(0.0), H.quantile(0.5)); // rank clamps to 1
  EXPECT_EQ(H.quantile(-1.0), H.quantile(0.0));
  EXPECT_EQ(H.quantile(2.0), 5000u); // >= 1 returns exact max
}

TEST(MetricsRegistryTest, HistogramsAreIndependentPerMetric) {
  MetricsRegistry M;
  M.histogram(PauseMetric::TotalPause).record(100);
  M.histogram(PauseMetric::Sweep).record(200);
  M.histogram(PauseMetric::Sweep).record(300);
  EXPECT_EQ(M.histogram(PauseMetric::TotalPause).count(), 1u);
  EXPECT_EQ(M.histogram(PauseMetric::Sweep).count(), 2u);
  EXPECT_EQ(M.histogram(PauseMetric::FinalMark).count(), 0u);
}

TEST(MetricsRegistryTest, PauseMetricNamesAreStable) {
  EXPECT_STREQ(pauseMetricName(PauseMetric::TotalPause), "total_pause");
  EXPECT_STREQ(pauseMetricName(PauseMetric::FinalCardClean),
               "final_card_clean");
  EXPECT_STREQ(pauseMetricName(PauseMetric::FinalMark), "final_mark");
  EXPECT_STREQ(pauseMetricName(PauseMetric::Sweep), "sweep");
  EXPECT_STREQ(pauseMetricName(PauseMetric::IncQuantum), "inc_quantum");
  EXPECT_STREQ(pauseMetricName(PauseMetric::RequestLatency),
               "request_latency");
  EXPECT_STREQ(pauseMetricName(PauseMetric::RequestService),
               "request_service");
}

TEST(GcAggregatesTest, FloatingGarbageUsesLowWaterMark) {
  const uint64_t Heap = 1000;
  std::vector<CycleRecord> Records;
  auto add = [&](uint64_t Cycle, uint64_t LiveAfter) {
    CycleRecord R;
    R.CycleNumber = Cycle;
    R.LiveBytesAfter = LiveAfter;
    R.HeapBytes = Heap;
    Records.push_back(R);
  };
  add(1, 100); // low-water = 100 -> floating 0
  add(2, 150); // floating 50 over the baseline
  add(3, 80);  // new low-water -> floating 0
  add(4, 130); // floating 50 over the *new* baseline

  // The aggregate is the mean per-cycle share, so each prefix's sum
  // minus the previous prefix's sum recovers that cycle's figure.
  const uint64_t Expected[] = {0, 50, 0, 50};
  double PrevSum = 0;
  for (size_t K = 1; K <= Records.size(); ++K) {
    std::vector<CycleRecord> Prefix(Records.begin(), Records.begin() + K);
    double Sum = GcAggregates::compute(Prefix).FloatingGarbageRatio *
                 static_cast<double>(K);
    EXPECT_NEAR((Sum - PrevSum) * static_cast<double>(Heap),
                static_cast<double>(Expected[K - 1]), 1e-9)
        << "cycle " << K;
    PrevSum = Sum;
  }
  EXPECT_NEAR(GcAggregates::compute(Records).FloatingGarbageRatio,
              100.0 / 1000.0 / 4.0, 1e-12);
}

TEST(GcAggregatesTest, KActualAveragesConcurrentCyclesOnly) {
  std::vector<CycleRecord> Records(3);
  Records[0].Concurrent = true;
  Records[0].BytesTracedConcurrent = 800;
  Records[0].BytesAllocatedConcurrent = 100; // K = 8
  Records[1].Concurrent = false;             // STW: not averaged
  Records[1].BytesTracedConcurrent = 5000;
  Records[1].BytesAllocatedConcurrent = 1;
  Records[2].Concurrent = true; // allocated nothing in its window: K = 0
  EXPECT_DOUBLE_EQ(GcAggregates::compute(Records).KActualMean, 4.0);
}

} // namespace
